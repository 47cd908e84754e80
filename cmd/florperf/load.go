package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/serve"
)

// clients is the number of closed-loop clients, each on its own keep-alive
// connection: a developer waits for one reply before asking again, and this
// machine has two processors to generate load from.
const clients = 2

// queryWorkers is the hindsight parallelism every replay query asks for
// (flord's default).
const queryWorkers = 2

// request is one generated query. The daemon sees nothing else of a
// workload: not its name, not its seed.
type request struct {
	run    int
	sample bool
	iters  [2]int
}

// nextRequest draws the query mix: a uniformly chosen run; three times in
// four a probed replay of the whole run, otherwise a sample of two
// iterations. The three runs cost the same, so the median and the 90th
// percentile both fall among the replays and not on a boundary between two
// kinds of query.
func nextRequest(rng *rand.Rand, runs []*runInfo) request {
	rq := request{run: rng.IntN(len(runs))}
	rq.sample = rng.IntN(4) == 3
	n := runs[rq.run].epochs
	rq.iters = [2]int{rng.IntN(n), rng.IntN(n)}
	return rq
}

// closedLoop runs the query mix from `clients` goroutines until the window
// closes: each draws its requests from its own stream of the seed and
// issues the next only when do returns. do reports how long the caller
// waited; requests still in flight at the deadline complete and count. It
// returns every wait, in milliseconds, and how long the loop ran, which is
// the window plus what the last requests took to come back.
func (e *benchEnv) closedLoop(seed uint64, window time.Duration, do func(rq request) time.Duration) ([]float64, time.Duration) {
	var (
		mu    sync.Mutex
		waits []float64
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			var mine []float64
			for time.Since(t0) < window {
				mine = append(mine, ms(do(nextRequest(rng, e.runs))))
			}
			mu.Lock()
			waits = append(waits, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return waits, time.Since(t0)
}

// reply is what the benchmark reads of a replay or sample response.
type reply struct {
	Logs    []string        `json:"logs"`
	WallNs  int64           `json:"wall_ns"`
	QueueNs int64           `json:"queue_ns"`
	Cost    serve.QueryCost `json:"cost"`
	bytes   int
}

// httpQuery sends one query to the daemon over loopback HTTP and checks the
// reply against the oracle. The returned time is the client's wait: request
// written to body fully read. A transport error is returned; a wrong status
// or a wrong log is a failed operation.
func (e *benchEnv) httpQuery(rq request) (time.Duration, *reply, error) {
	r := e.runs[rq.run]
	var path string
	var body any
	if rq.sample {
		path, body = "/logs", serve.SampleRequest{Probe: "outer", Iterations: rq.iters[:]}
	} else {
		path, body = "/replay", serve.ReplayRequest{Probe: "outer", Workers: queryWorkers}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	resp, err := e.client.Post(e.url+"/v1/runs/"+r.id+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	rep := &reply{bytes: len(got)}
	if resp.StatusCode != http.StatusOK {
		e.check(false, "%s%s: status %d: %s", r.id, path, resp.StatusCode, got)
		return d, rep, nil
	}
	if err := json.Unmarshal(got, rep); err != nil {
		e.check(false, "%s%s: undecodable reply: %v", r.id, path, err)
		return d, rep, nil
	}
	e.checkReply(rq, rep.Logs)
	return d, rep, nil
}

// checkReply compares a query's log, byte for byte, with the oracle's.
func (e *benchEnv) checkReply(rq request, logs []string) {
	r := e.runs[rq.run]
	want := r.golden
	if rq.sample {
		want = r.expectSample(rq.iters[:])
	}
	e.check(slices.Equal(logs, want), "query %+v of %s returned %d lines that differ from the oracle's %d", rq, r.id, len(logs), len(want))
}

// queryRounds is how many rounds a query window is cut into. The window
// reports medians over rounds, so one round disturbed by a neighbour on the
// host moves nothing.
const queryRounds = 6

// measureQueries is the timed window of a query workload: the closed loop,
// round after round.
func (e *benchEnv) measureQueries(seed uint64, window time.Duration) (windowResult, error) {
	var p50s, p90s, rates, vanillas []float64
	n := 0
	for r := 0; r < queryRounds; r++ {
		var transport error
		var once sync.Once
		lat, elapsed := e.closedLoop(seed+uint64(r)<<32, window/queryRounds, func(rq request) time.Duration {
			d, _, err := e.httpQuery(rq)
			if err != nil {
				once.Do(func() { transport = err })
				e.check(false, "transport: %v", err)
			}
			return d
		})
		if transport != nil {
			return windowResult{}, transport
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		rates = append(rates, float64(len(lat))/elapsed.Seconds())
		n += len(lat)
	}
	res := windowResult{p50Ms: medianOf(p50s), p90Ms: medianOf(p90s), perSec: medianOf(rates)}
	for _, st := range []*stat{&res.p50Ms, &res.p90Ms, &res.perSec} {
		st.N = n
	}
	var dirs []string
	var logical int64
	for _, r := range e.runs {
		dirs = append(dirs, r.dir)
		logical += r.rec.MatStats.BytesWritten
		vanillas = append(vanillas, nsToMs(r.vanillaNs))
	}
	res.stored = storedPerLogicalByte(dirs, logical)
	// What answering the probe costs without flor: re-running the probed
	// training script, as set-up did for the oracle.
	res.vanillaMs = medianOf(vanillas)
	return res, nil
}

// pairResult is one vanilla run and one recorded run of the same program.
type pairResult struct {
	vanilla, record time.Duration
	res             *core.RecordResult
	onDisk          int64
}

// recordPair runs the workload's program once uninstrumented and once under
// core.Record into a fresh directory, in the order given, and checks both
// logs against the oracle. The directory is removed before returning.
func (e *benchEnv) recordPair(recordFirst bool) (pairResult, error) {
	r := e.runs[0]
	var p pairResult
	dir := filepath.Join(e.dir, "pair")
	var verr, rerr error
	var vlogs []string
	vanilla := func() {
		t0 := time.Now()
		vlogs, _, verr = core.Vanilla(r.factory)
		p.vanilla = time.Since(t0)
	}
	record := func() {
		t0 := time.Now()
		p.res, rerr = core.Record(dir, r.factory, e.w.recOpts)
		p.record = time.Since(t0)
	}
	if recordFirst {
		record()
		vanilla()
	} else {
		vanilla()
		record()
	}
	if verr != nil {
		return p, verr
	}
	if rerr != nil {
		return p, rerr
	}
	e.check(slices.Equal(vlogs, r.base) && slices.Equal(p.res.Logs, r.base),
		"a pair of %s: vanilla log equal to oracle: %v, record log equal: %v", r.id, slices.Equal(vlogs, r.base), slices.Equal(p.res.Logs, r.base))
	p.onDisk = dirBytes(dir)
	return p, os.RemoveAll(dir)
}

// measureRecords is the timed window of a record workload: vanilla/record
// pairs of the workload's program until the window closes, alternating which
// goes first so that neither side always inherits the other's warm heap. The
// operation is the recorded run, and each is held against the vanilla run it
// was paired with.
func (e *benchEnv) measureRecords(window time.Duration) (windowResult, error) {
	var recordMs, vanillaMs, ratios []float64
	var onDisk, logical int64
	t0 := time.Now()
	for n := 0; time.Since(t0) < window; n++ {
		p, err := e.recordPair(n%2 == 1)
		if err != nil {
			return windowResult{}, err
		}
		recordMs = append(recordMs, ms(p.record))
		vanillaMs = append(vanillaMs, ms(p.vanilla))
		ratios = append(ratios, p.record.Seconds()/p.vanilla.Seconds())
		onDisk += p.onDisk
		logical += p.res.MatStats.BytesWritten
	}
	res := windowResult{
		slowdown:  medianOf(ratios),
		p50Ms:     medianOf(recordMs),
		p90Ms:     statOf(quantile(recordMs, 0.9), recordMs),
		vanillaMs: medianOf(vanillaMs),
		stored:    ratio(float64(onDisk), float64(logical)),
	}
	// Recorded runs per second of recording: the vanilla runs between them
	// are the control, not part of the load.
	res.perSec = single(1000 * float64(len(recordMs)) / sum(recordMs))
	res.perSec.N = len(recordMs)
	return res, nil
}
