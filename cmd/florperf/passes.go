package main

import (
	"cmp"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/remote"
)

// layerRun carries one traced invocation.
type layerRun struct {
	e    *benchEnv
	tr   *tracer
	seed uint64
	out  map[string]stat
	reqs atomic.Int64 // request ids for spans
}

// traceRounds is how many times the traced window cycles through its query
// passes. The passes are compared with each other, and this machine's speed
// drifts over seconds, so each pass runs in short turns next to the others
// rather than in one block after them.
const traceRounds = 4

// traceLayers is the --trace 1 window: vanilla/record pairs for the write
// side; then the workload's seeded query mix at three depths, over HTTP,
// through Server.Replay and through replay.Replay, in alternating turns;
// then the bottom layers called one by one on the recorded checkpoints.
func (e *benchEnv) traceLayers(cfg config, window time.Duration, out map[string]stat) error {
	l := &layerRun{e: e, tr: newTracer(), seed: cfg.seed, out: out}
	turn := func(share float64) time.Duration {
		return time.Duration(float64(window) * share / traceRounds)
	}
	if err := l.writeSide(time.Duration(float64(window) * 0.15)); err != nil {
		return err
	}
	rl, err := l.newReplayLayer()
	if err != nil {
		return err
	}
	var httpOff, httpOn, direct, lower passLog
	var daemon daemonDelta
	var allocs allocDelta
	for r := 0; r < traceRounds; r++ {
		// Every turn draws its own request stream from the seed.
		seed := func(pass uint64) uint64 { return l.seed + (uint64(r)*4+pass+1)<<32 }
		if err := l.httpTurn(&httpOff, nil, turn(0.15), seed(0)); err != nil {
			return err
		}
		daemon.begin(e.srv)
		if err := l.httpTurn(&httpOn, l.tr, turn(0.15), seed(1)); err != nil {
			return err
		}
		daemon.end(e.srv)
		allocs.begin()
		if err := l.serveTurn(&direct, turn(0.20), seed(2)); err != nil {
			return err
		}
		allocs.end()
		if err := rl.turn(&lower, turn(0.25), seed(3)); err != nil {
			return err
		}
	}
	l.closeBooks(&httpOff, &httpOn, &direct, &lower)
	daemon.report(out, httpOn.n)
	out["serve.allocs_per_query"] = single(ratio(float64(allocs.mallocs), float64(direct.n)))
	out["serve.alloc_kib_per_query"] = single(ratio(float64(allocs.bytes)/1024, float64(direct.n)))
	rl.report(out, lower.n)
	if err := l.probes(); err != nil {
		return err
	}
	if cfg.out == "" {
		return nil
	}
	f, err := os.Create(cfg.out + ".spans.ndjson")
	if err != nil {
		return err
	}
	if err := l.tr.writeNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// queryRow is one replay query as one pass saw it; a pass fills the fields
// its layer can see. Times are in milliseconds.
type queryRow struct {
	wait  float64 // the caller's wait at this pass's layer
	wall  float64 // replay.Result.WallNs, from the reply or the result
	queue float64 // admission queue wait, from the reply
	// The replay's wall time divided by the report of the worker it waited
	// for longest (replay pass).
	setup, restore, exec, residual float64
	restoredMiB, imbalance         float64
	respKiB                        float64
	fetch                          store.FetchSnapshot
}

// passLog collects a pass's queries from concurrent clients. Sample queries
// stay in the mix, so every pass carries the same load, but the books are
// kept on replays: the median query is one.
type passLog struct {
	mu   sync.Mutex
	rows []queryRow
	n    int // every query, samples included
	err  error
}

func (p *passLog) add(rq request, r queryRow) {
	p.mu.Lock()
	p.n++
	if !rq.sample {
		p.rows = append(p.rows, r)
	}
	p.mu.Unlock()
}

func (p *passLog) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// mid describes the pass's median query: the mean of f over the middle fifth
// of the replays ordered by wait. A query's parts add up to its wait, means
// add up where medians do not, and the middle fifth ignores the tails as a
// median does. Min, max and n are over every replay.
func (p *passLog) mid(f func(queryRow) float64) stat {
	if len(p.rows) == 0 {
		return single(0)
	}
	rows := slices.Clone(p.rows)
	slices.SortFunc(rows, func(a, b queryRow) int { return cmp.Compare(a.wait, b.wait) })
	all := make([]float64, len(rows))
	for i, r := range rows {
		all[i] = f(r)
	}
	lo, hi := len(rows)*2/5, len(rows)*3/5
	if hi == lo {
		hi = lo + 1
	}
	return statOf(sum(all[lo:hi])/float64(hi-lo), all)
}

func rowWait(r queryRow) float64 { return r.wait }
func rowWall(r queryRow) float64 { return r.wall }

// httpTurn is the top layer: the query mix over loopback HTTP, with the
// benchmark's spans when tr is set.
func (l *layerRun) httpTurn(log *passLog, tr *tracer, d time.Duration, seed uint64) error {
	e := l.e
	e.closedLoop(seed, d, func(rq request) time.Duration {
		var wait time.Duration
		var rep *reply
		var err error
		tr.timed("client", "http", int(l.reqs.Add(1)), func() { wait, rep, err = e.httpQuery(rq) })
		if err != nil {
			log.fail(err)
			return wait
		}
		log.add(rq, queryRow{wait: ms(wait), wall: nsToMs(rep.WallNs), queue: nsToMs(rep.QueueNs),
			respKiB: float64(rep.bytes) / 1024, fetch: rep.Cost.Fetch})
		return wait
	})
	return log.err
}

// serveTurn is one layer down: the same mix through Server.Replay and
// Server.Sample, with no HTTP.
func (l *layerRun) serveTurn(log *passLog, d time.Duration, seed uint64) error {
	e := l.e
	e.closedLoop(seed, d, func(rq request) time.Duration {
		r := e.runs[rq.run]
		var row queryRow
		var logs []string
		var err error
		wait := l.tr.timed("serve", "Server.Replay", int(l.reqs.Add(1)), func() {
			if rq.sample {
				var res *serve.SampleResponse
				if res, err = e.srv.Sample(context.Background(), r.id, serve.SampleRequest{Probe: "outer", Iterations: rq.iters[:]}); err == nil {
					logs = res.Logs
				}
				return
			}
			var res *serve.ReplayResponse
			if res, err = e.srv.Replay(context.Background(), r.id, serve.ReplayRequest{Probe: "outer", Workers: queryWorkers}); err == nil {
				logs, row.wall, row.queue = res.Logs, nsToMs(res.WallNs), nsToMs(res.QueueNs)
			}
		})
		if err != nil {
			log.fail(err)
			return wait
		}
		e.checkReply(rq, logs)
		row.wait = ms(wait)
		log.add(rq, row)
		return wait
	})
	return log.err
}

// countingStore counts the GETs the remote path issues; the benchmark puts
// it where the daemon puts the bare object store.
type countingStore struct {
	remote.ObjectStore
	gets, bytes atomic.Int64
}

func (c *countingStore) Get(key string) ([]byte, error) {
	b, err := c.ObjectStore.Get(key)
	c.gets.Add(1)
	c.bytes.Add(int64(len(b)))
	return b, err
}

func (c *countingStore) GetRange(key string, off, n int64) ([]byte, error) {
	b, err := c.ObjectStore.GetRange(key, off, n)
	c.gets.Add(1)
	c.bytes.Add(int64(len(b)))
	return b, err
}

// openedRun is an open recording and the payload cache that lives with it.
type openedRun struct {
	rec   *replay.Recording
	cache *backmat.PayloadCache
}

// replayLayer is the next layer down: replay.Replay called the way
// Server.Replay calls it (same workers, scheduler and initialization, a slot
// pool of the daemon's size shared by both clients, a payload cache of the
// workload's size) on recordings opened the way the daemon opens them, and
// kept open only if the workload's store LRU would keep them.
type replayLayer struct {
	l       *layerRun
	opts    serve.Options
	counter *countingStore   // remote workloads only
	tier    *cachetier.Cache // remote workloads only
	slots   *sched.Pool
	kept    []*openedRun // nil entries are opened per query

	mu    sync.Mutex
	opens []float64
}

func (l *layerRun) newReplayLayer() (*replayLayer, error) {
	e := l.e
	rl := &replayLayer{l: l, opts: e.w.serveOpts(e.pool), slots: sched.NewPool(runtime.GOMAXPROCS(0)),
		kept: make([]*openedRun, len(e.runs))}
	if e.w.remote {
		fs, err := remote.NewFSStore(e.pool)
		if err != nil {
			return nil, err
		}
		rl.counter = &countingStore{ObjectStore: fs}
		if rl.tier, err = cachetier.New("", rl.opts.CacheMaxBytes); err != nil {
			return nil, err
		}
	}
	// The daemon's open-store LRU, reduced to what the workloads need: it
	// either holds every run or (capacity below the number of runs, two
	// clients on three runs) almost never holds the one asked for.
	if rl.opts.StoreCacheSize == 0 || rl.opts.StoreCacheSize >= len(e.runs) {
		for i, r := range e.runs {
			var err error
			if rl.kept[i], err = rl.open(r, 0); err != nil {
				return nil, err
			}
		}
	}
	return rl, nil
}

// open loads a recording as Server.open does and times it.
func (rl *replayLayer) open(r *runInfo, req int) (*openedRun, error) {
	e := rl.l.e
	var rec *replay.Recording
	var err error
	d := rl.l.tr.timed("core", "LoadRecording", req, func() {
		if rl.counter != nil {
			backend := remote.NewObjectBackend(remote.Retry(rl.counter, remote.Policy{}), remote.PacksPrefix(r.id), rl.tier)
			rec, err = core.LoadRecordingWith(filepath.Join(e.dir, "ctl", r.id), store.Options{ReadOnly: true, Backend: backend})
		} else {
			rec, err = core.LoadRecordingShared(r.dir)
		}
	})
	rl.mu.Lock()
	rl.opens = append(rl.opens, ms(d))
	rl.mu.Unlock()
	return &openedRun{rec: rec, cache: backmat.NewPayloadCache(rl.opts.PayloadCacheBytes)}, err
}

func (rl *replayLayer) turn(log *passLog, d time.Duration, seed uint64) error {
	e := rl.l.e
	e.closedLoop(seed, d, func(rq request) time.Duration {
		r := e.runs[rq.run]
		req := int(rl.l.reqs.Add(1))
		or := rl.kept[rq.run]
		var err error
		var logs []string
		var res *replay.Result
		wait := rl.l.tr.timed("replay", "open+Replay", req, func() {
			if or == nil {
				if or, err = rl.open(r, req); err != nil {
					return
				}
			}
			if rq.sample {
				var sr *replay.SampleResult
				sr, err = replay.ReplaySampleStream(or.rec, r.probed, rq.iters[:], replay.SampleOptions{
					Cache: or.cache, Slots: rl.slots, Ctx: context.Background(), Trace: obs.NewTrace()}, nil)
				if err == nil {
					logs = sr.Logs
				}
				return
			}
			res, err = replay.Replay(or.rec, r.probed, replay.Options{Workers: queryWorkers,
				Scheduler: replay.SchedBalanced, Init: replay.Weak, Slots: rl.slots,
				Ctx: context.Background(), Cache: or.cache, Trace: obs.NewTrace()})
			if err == nil {
				logs = res.Logs
			}
		})
		if err != nil {
			log.fail(err)
			return wait
		}
		e.checkReply(rq, logs)
		row := queryRow{wait: ms(wait)}
		if res != nil {
			splitWall(res, &row)
		}
		log.add(rq, row)
		return wait
	})
	return log.err
}

// splitWall divides a replay's wall time by the report of its slowest
// worker: the replay ends when that worker does.
func splitWall(res *replay.Result, row *queryRow) {
	var slowest replay.WorkerReport
	var busy, restored int64
	for _, w := range res.Workers {
		t := w.SetupNs + w.InitNs + w.WorkNs
		busy += t
		restored += w.RestoredBytes
		if t >= slowest.SetupNs+slowest.InitNs+slowest.WorkNs {
			slowest = w
		}
	}
	crit := slowest.SetupNs + slowest.InitNs + slowest.WorkNs
	row.wall = nsToMs(res.WallNs)
	row.setup = nsToMs(slowest.SetupNs)
	row.restore = nsToMs(slowest.RestoreNs)
	// Initialization and work, less the restores inside both: the
	// statements the replay re-executed, the probe among them.
	row.exec = nsToMs(slowest.InitNs + slowest.WorkNs - slowest.RestoreNs)
	// Waiting for a slot of the shared pool, starting and joining workers.
	row.residual = nsToMs(res.WallNs - crit)
	row.restoredMiB = mib(restored)
	row.imbalance = ratio(float64(crit), float64(busy)/float64(len(res.Workers)))
}

func (rl *replayLayer) report(out map[string]stat, queries int) {
	out["serve.store_open_ms"] = medianOf(rl.opens)
	var gets, got int64
	if rl.counter != nil {
		gets, got = rl.counter.gets.Load(), rl.counter.bytes.Load()
	}
	out["remote.gets_per_query"] = single(ratio(float64(gets), float64(queries)))
	out["remote.mib_per_query"] = single(ratio(mib(got), float64(queries)))
}

// closeBooks attributes the traced HTTP median to layers. Each pass's median
// query is its middle fifth; within a pass the parts of a query add up to
// its wait, so the only number left over is between passes: the replay wall
// time the daemon reported against the one the benchmark measured calling
// replay.Replay itself. It is reported, not hidden.
func (l *layerRun) closeBooks(httpOff, httpOn, direct, lower *passLog) {
	out := l.out
	p50off, p50on := httpOff.mid(rowWait), httpOn.mid(rowWait)
	out["trace.http_p50_ms"] = p50on
	waits := make([]float64, len(httpOn.rows))
	for i, r := range httpOn.rows {
		waits[i] = r.wait
	}
	out["trace.http_p90_ms"] = statOf(quantile(waits, 0.9), waits)
	out["trace.overhead_pct"] = single(100 * ratio(p50on.Value-p50off.Value, p50off.Value))
	out["serve.resp_kib_per_query"] = httpOn.mid(func(r queryRow) float64 { return r.respKiB })

	out["serve.http_overhead_ms"] = single(p50on.Value - direct.mid(rowWait).Value)
	out["serve.overhead_ms"] = direct.mid(func(r queryRow) float64 { return r.wait - r.wall - r.queue })
	out["serve.queue_ms"] = direct.mid(func(r queryRow) float64 { return r.queue })

	out["replay.wall_ms"] = lower.mid(rowWall)
	out["replay.setup_ms"] = lower.mid(func(r queryRow) float64 { return r.setup })
	out["replay.restore_ms"] = lower.mid(func(r queryRow) float64 { return r.restore })
	out["replay.exec_ms"] = lower.mid(func(r queryRow) float64 { return r.exec })
	out["replay.residual_ms"] = lower.mid(func(r queryRow) float64 { return r.residual })
	out["replay.restored_mib_per_query"] = lower.mid(func(r queryRow) float64 { return r.restoredMiB })
	out["sched.imbalance"] = lower.mid(func(r queryRow) float64 { return r.imbalance })

	out["trace.unattributed_ms"] = single(direct.mid(rowWall).Value - out["replay.wall_ms"].Value)

	var fetch store.FetchSnapshot
	for _, r := range httpOn.rows {
		fetch = fetch.Add(r.fetch)
	}
	total := float64(fetch.TotalBytes())
	for tier, b := range map[string]int64{"mmap": fetch.MmapBytes, "scatter": fetch.ScatterBytes,
		"ranged": fetch.RangedBytes, "cache": fetch.CacheBytes, "remote": fetch.RemoteBytes,
		"cachetier": fetch.CacheTierBytes, "singleflight": fetch.SingleflightBytes} {
		out["store.fetch_share."+tier] = single(ratio(float64(b), total))
	}
}

// daemonDelta sums what the daemon's statistics and the process's mapped
// memory moved by over the traced HTTP turns.
type daemonDelta struct {
	before                  serve.Stats
	mappedBefore            float64
	mapped                  float64
	cacheHits, cacheMisses  int64
	storeHits, storeMisses  int64
	tierHit, tierServed     int64
	tierEvictions, resident int64
}

func (d *daemonDelta) begin(srv *serve.Server) {
	d.before, d.mappedBefore = srv.Stats(), rssMiB("RssFile")
}

func (d *daemonDelta) end(srv *serve.Server) {
	after := srv.Stats()
	d.mapped += max(0, rssMiB("RssFile")-d.mappedBefore)
	for id, pc := range after.PayloadCaches {
		// A store the LRU evicted took its cache, and its counts, with it: a
		// cache that counts less than before is a new one.
		was := d.before.PayloadCaches[id]
		if pc.Hits < was.Hits || pc.Misses < was.Misses {
			was = backmat.PayloadCacheStats{}
		}
		d.cacheHits += pc.Hits - was.Hits
		d.cacheMisses += pc.Misses - was.Misses
	}
	d.storeHits += after.StoreCache.Hits - d.before.StoreCache.Hits
	d.storeMisses += after.StoreCache.Misses - d.before.StoreCache.Misses
	if after.CacheTier != nil {
		ct, was := *after.CacheTier, *d.before.CacheTier
		d.tierHit += ct.HitBytes - was.HitBytes
		d.tierServed += ct.HitBytes - was.HitBytes + ct.MissBytes - was.MissBytes + ct.SingleflightBytes - was.SingleflightBytes
		d.tierEvictions += ct.Evictions - was.Evictions
		d.resident = ct.Bytes
	}
}

func (d *daemonDelta) report(out map[string]stat, queries int) {
	out["store.mapped_rss_mib_per_query"] = single(ratio(d.mapped, float64(queries)))
	out["backmat.payload_cache_hit_ratio"] = single(ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)))
	out["serve.store_hit_ratio"] = single(ratio(float64(d.storeHits), float64(d.storeHits+d.storeMisses)))
	out["cachetier.hit_ratio"] = single(ratio(float64(d.tierHit), float64(d.tierServed)))
	out["cachetier.evicted_mib_per_query"] = single(ratio(mib(d.tierEvictions*cachetier.DefaultBlockSize), float64(queries)))
	out["cachetier.resident_mib"] = single(mib(d.resident))
}

// allocDelta sums the process's heap allocation over the direct-call turns.
// It is process-wide, so the benchmark's own checking of replies is in it;
// the HTTP client and server are not.
type allocDelta struct {
	m0             runtime.MemStats
	mallocs, bytes uint64
}

func (a *allocDelta) begin() { runtime.ReadMemStats(&a.m0) }

func (a *allocDelta) end() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs += m.Mallocs - a.m0.Mallocs
	a.bytes += m.TotalAlloc - a.m0.TotalAlloc
}
