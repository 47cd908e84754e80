package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store/remote"
)

// TestServeRemoteRunStateless pins the daemon's stateless open path: a run
// whose packs live only in the remote object pool is registered with just
// its ID and queried with logs byte-identical to a local replay. With a
// chunk-cache tier, the tier shows up in /v1/stats — warm on the second
// query. Without one (CacheMaxBytes < 0), stats carry no tier and every
// fetched byte is a ranged GET the restore issued itself.
func TestServeRemoteRunStateless(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cacheMaxBytes int64
	}{
		{"cache-tier", 64 << 20},
		{"no-cache-tier", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testServeRemoteRun(t, tc.cacheMaxBytes)
		})
	}
}

func testServeRemoteRun(t *testing.T, cacheMaxBytes int64) {
	cached := cacheMaxBytes > 0
	base := t.TempDir()
	src := filepath.Join(base, "src")
	factory := recordRun(t, src, 8, 3, 17)
	want := directReplay(t, src, factory)

	// Upload the run, then throw the local copy's role away: the daemon
	// gets a remote root and an empty scratch dir, nothing else.
	pool := filepath.Join(base, "pool")
	obj, err := remote.NewFSStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.UploadRun(obj, src, "run-r"); err != nil {
		t.Fatal(err)
	}

	srv := serve.New(serve.Options{
		Remote:        pool,
		CacheMaxBytes: cacheMaxBytes,
	})
	if err := srv.Register(serve.RunConfig{
		ID:     "run-r",
		Dir:    filepath.Join(base, "ctl", "run-r"),
		Remote: true,
		Factories: map[string]func() *script.Program{
			"base":  factory,
			"wnorm": withProbe(factory),
		},
	}); err != nil {
		t.Fatal(err)
	}
	// A remote registration of an unknown run is a client error, not a 500.
	if err := srv.Register(serve.RunConfig{
		ID: "ghost", Dir: filepath.Join(base, "ctl", "ghost"), Remote: true,
		Factories: map[string]func() *script.Program{"base": factory},
	}); err == nil {
		t.Fatal("registering an absent remote run succeeded")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fx := &daemonFixture{srv: srv, ts: ts}

	for pass, label := range []string{"cold", "warm"} {
		resp, body := fx.post(t, "/v1/runs/run-r/replay", serve.ReplayRequest{Probe: "wnorm", Workers: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s replay: status %d: %s", label, resp.StatusCode, body)
		}
		var rr serve.ReplayResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if len(rr.Logs) != len(want) {
			t.Fatalf("%s replay: %d log lines, want %d", label, len(rr.Logs), len(want))
		}
		for i := range want {
			if rr.Logs[i] != want[i] {
				t.Fatalf("%s replay log %d = %q, want %q", label, i, rr.Logs[i], want[i])
			}
		}
		st := fx.stats(t)
		if !cached {
			if st.CacheTier != nil {
				t.Fatalf("%s: uncached daemon reports a cache tier: %+v", label, *st.CacheTier)
			}
			if f := rr.Cost.Fetch; f.CacheTierBytes != 0 || f.SingleflightBytes != 0 || (pass == 0 && f.RemoteBytes == 0) {
				t.Fatalf("%s: uncached fetches not all remote: %+v", label, f)
			}
			continue
		}
		if st.CacheTier == nil {
			t.Fatalf("%s: stats carry no cache_tier block", label)
		}
		if pass == 0 && st.CacheTier.MissBytes == 0 {
			t.Fatal("cold replay fetched nothing through the cache tier")
		}
		if pass == 1 && st.CacheTier.HitBytes == 0 {
			t.Fatal("warm replay hit nothing in the cache tier")
		}
	}
}
