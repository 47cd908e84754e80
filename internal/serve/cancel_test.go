package serve_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
)

// TestCancelledBehindBusyPoolIsTheCallersError parks each query kind behind
// a shared pool whose only slot is taken and ends the wait three ways. A
// caller that cancels, or whose own deadline runs out, gets its context's
// error back as-is and is counted nowhere — not as a server error, not as a
// queue timeout — exactly like the same cancel one step earlier, queued in
// admission. Only the daemon's own slot-wait deadline is ErrQueueTimeout.
// Whichever way it ends, the run's in-flight token and the query's pool
// waiters are released and no goroutine stays behind.
func TestCancelledBehindBusyPoolIsTheCallersError(t *testing.T) {
	withRegistry(t)
	dir := t.TempDir()
	if _, err := core.Record(dir, miniFactory(6, 4, 7), core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name  string
		query func(context.Context, *serve.Server) error
	}{
		{"replay", func(ctx context.Context, srv *serve.Server) error {
			_, err := srv.Replay(ctx, "mini", serve.ReplayRequest{Workers: 2})
			return err
		}},
		{"sample", func(ctx context.Context, srv *serve.Server) error {
			_, err := srv.Sample(ctx, "mini", serve.SampleRequest{Iterations: []int{1, 4}})
			return err
		}},
	}
	endings := []struct {
		name         string
		queueTimeout time.Duration
		ctx          func() (context.Context, context.CancelFunc)
		want         error
		timeouts     int64
	}{
		{"caller cancels", time.Minute, func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, context.Canceled, 0},
		{"caller deadline", time.Minute, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded, 0},
		{"daemon slot deadline", 50 * time.Millisecond, func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, serve.ErrQueueTimeout, 1},
	}
	for _, end := range endings {
		for _, kind := range kinds {
			t.Run(end.name+"/"+kind.name, func(t *testing.T) {
				srv := serve.New(serve.Options{Slots: 1, QueueTimeout: end.queueTimeout})
				id := "mini"
				if err := srv.Register(serve.RunConfig{ID: id, Dir: dir,
					Factories: map[string]func() *script.Program{"base": miniFactory(6, 4, 7)}}); err != nil {
					t.Fatal(err)
				}
				if err := srv.Pool().Acquire(context.Background(), 0); err != nil {
					t.Fatal(err)
				}
				defer srv.Pool().Release()
				errsBefore := obs.C(obs.MServeErrors, obs.L("run", id)).Value()
				timeoutsBefore := obs.C(obs.MServeQueueTimeouts, obs.L("run", id)).Value()
				goroutines := runtime.NumGoroutine()

				ctx, cancel := end.ctx()
				defer cancel()
				done := make(chan error, 1)
				go func() { done <- kind.query(ctx, srv) }()
				patience := time.Now().Add(30 * time.Second)
				for srv.Pool().Stats().Waiting == 0 && len(done) == 0 {
					if time.Now().After(patience) {
						t.Fatal("query never parked behind the busy pool")
					}
					time.Sleep(time.Millisecond)
				}
				if end.want == context.Canceled {
					cancel()
				}
				err := <-done
				if !errors.Is(err, end.want) {
					t.Fatalf("error = %v, want %v", err, end.want)
				}
				if end.timeouts == 0 && errors.Is(err, serve.ErrQueueTimeout) {
					t.Fatalf("the caller's own %v reported as the daemon's queue timeout: %v", end.want, err)
				}

				st := srv.Stats()
				rs := st.Runs[id]
				if rs.Errors != 0 || rs.QueueTimeouts != end.timeouts || rs.Replays+rs.Samples != 0 {
					t.Errorf("run stats = %+v, want 0 errors, %d queue timeouts, nothing served", rs, end.timeouts)
				}
				if got := obs.C(obs.MServeErrors, obs.L("run", id)).Value() - errsBefore; got != 0 {
					t.Errorf("flor_serve_errors_total moved by %d", got)
				}
				if got := obs.C(obs.MServeQueueTimeouts, obs.L("run", id)).Value() - timeoutsBefore; got != end.timeouts {
					t.Errorf("flor_serve_queue_timeouts_total moved by %d, want %d", got, end.timeouts)
				}
				if rs.Inflight != 0 || rs.Queued != 0 || srv.InflightQueries() != 0 {
					t.Errorf("in-flight token not released: inflight=%d queued=%d daemon=%d", rs.Inflight, rs.Queued, srv.InflightQueries())
				}
				if st.Pool.InUse != 1 || st.Pool.Waiting != 0 {
					t.Errorf("pool = %+v, want only the test's slot in use and nobody waiting", st.Pool)
				}
				for runtime.NumGoroutine() > goroutines {
					if time.Now().After(patience) {
						t.Fatalf("%d goroutines after the query, %d before", runtime.NumGoroutine(), goroutines)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
