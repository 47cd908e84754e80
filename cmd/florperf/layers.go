package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
)

// perLayer are the metrics of single layers, named by package, reported by
// every workload with --trace 1. README.md says, for each, which end-to-end
// metric it should move and on which workload. They come from calling each
// layer directly, one layer lower per pass, on the workload's own inputs:
// the benchmark owns every span, and a layer's own time is the difference
// between the pass that includes it and the pass below.
var perLayer = []metricDef{
	// Write side: vanilla/record pairs of the workload's (first) program.
	{"core.record_ms", "ms"},
	{"core.instrument_residual_ms", "ms"},
	{"adapt.ckpt_density", "ratio"},
	{"backmat.caller_blocked_ms", "ms"},
	{"backmat.snapshot_ms", "ms"},
	{"backmat.stall_ms", "ms"},
	{"backmat.serialize_ms", "ms"},
	{"backmat.write_ms", "ms"},
	{"backmat.background_ms", "ms"},
	// Layer probes over the checkpoints the set-up recording captured.
	{"value.snapshot_mibps", "MiB/s"},
	{"value.restore_mibps", "MiB/s"},
	{"codec.encode_mibps", "MiB/s"},
	{"codec.decode_mibps", "MiB/s"},
	{"ckptfmt.encode_mibps.raw", "MiB/s"},
	{"ckptfmt.encode_mibps.lz4", "MiB/s"},
	{"ckptfmt.encode_mibps.deflate", "MiB/s"},
	{"ckptfmt.decode_mibps.raw", "MiB/s"},
	{"ckptfmt.decode_mibps.lz4", "MiB/s"},
	{"ckptfmt.decode_mibps.deflate", "MiB/s"},
	{"store.put_mibps", "MiB/s"},
	{"store.put_dedup_mibps", "MiB/s"},
	{"store.dedup_ratio", "ratio"},
	{"store.stored_mib", "MiB"},
	{"store.open_ms", "ms"},
	{"store.get_mibps", "MiB/s"},
	// Read side, as the daemon's replies and statistics report it.
	{"store.fetch_share.mmap", "ratio"},
	{"store.fetch_share.scatter", "ratio"},
	{"store.fetch_share.ranged", "ratio"},
	{"store.fetch_share.cache", "ratio"},
	{"store.fetch_share.remote", "ratio"},
	{"store.fetch_share.cachetier", "ratio"},
	{"store.fetch_share.singleflight", "ratio"},
	{"store.mapped_rss_mib_per_query", "MiB"},
	{"backmat.payload_cache_hit_ratio", "ratio"},
	{"cachetier.hit_ratio", "ratio"},
	{"cachetier.evicted_mib_per_query", "MiB"},
	{"cachetier.resident_mib", "MiB"},
	{"remote.gets_per_query", "count"},
	{"remote.mib_per_query", "MiB"},
	// Replay layer: replay.Replay called as the daemon calls it.
	{"replay.wall_ms", "ms"},
	{"replay.setup_ms", "ms"},
	{"replay.restore_ms", "ms"},
	{"replay.exec_ms", "ms"},
	{"replay.residual_ms", "ms"},
	{"replay.restored_mib_per_query", "MiB"},
	{"sched.imbalance", "ratio"},
	// Serve layer: Server.Replay called directly, then over HTTP.
	{"serve.overhead_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.store_open_ms", "ms"},
	{"serve.store_hit_ratio", "ratio"},
	{"serve.allocs_per_query", "count"},
	{"serve.alloc_kib_per_query", "KiB"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.resp_kib_per_query", "KiB"},
	// The books: what the traced HTTP median is, how much of it the layer
	// metrics above leave unexplained, and what tracing itself cost.
	{"trace.http_p50_ms", "ms"},
	{"trace.http_p90_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// writeSide times vanilla/record pairs of the workload's first program with
// the workload's record options and reads the materializer's own accounting
// of each recording (backmat.Stats, returned by core.Record).
func (l *layerRun) writeSide(budget time.Duration) error {
	r := l.e.runs[0]
	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	t0 := time.Now()
	for n := 0; n < 2 || time.Since(t0) < budget; n++ {
		var p pairResult
		var err error
		l.tr.timed("core", "vanilla+Record", 0, func() { p, err = l.e.recordPair(n%2 == 1) })
		if err != nil {
			return err
		}
		m := p.res.MatStats
		add("core.record_ms", ms(p.record))
		// What is left of the slowdown once the time the materializer kept
		// the training thread is taken out: instrumentation, the adaptive
		// decision, and contention with the background writer.
		add("core.instrument_residual_ms", ms(p.record-p.vanilla)-nsToMs(m.CallerNs))
		add("adapt.ckpt_density", float64(m.Checkpoints)/float64(r.epochs))
		add("backmat.caller_blocked_ms", nsToMs(m.CallerNs))
		add("backmat.snapshot_ms", nsToMs(m.SnapshotNs))
		add("backmat.stall_ms", nsToMs(m.CallerNs-m.SnapshotNs))
		add("backmat.serialize_ms", nsToMs(m.SerializeNs))
		add("backmat.write_ms", nsToMs(m.WriteNs))
		add("backmat.background_ms", nsToMs(m.BackgroundNs))
	}
	for name, samples := range cols {
		l.out[name] = medianOf(samples)
	}
	return nil
}

// probeReps is how often each layer probe repeats; the median is reported.
const probeReps = 3

// captureCap bounds the checkpoint bytes the probes hold in memory, and
// codecCap the share of them the compressing frame styles are tried on
// (deflate runs at tens of MiB/s).
const (
	captureCap = 32 << 20
	codecCap   = 8 << 20
)

// rate runs f probeReps times as spans of layer and reports the median
// throughput over bytes as metric.
func (l *layerRun) rate(metric, layer, name string, bytes int64, f func() error) error {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		var err error
		d := l.tr.timed(layer, name, 0, func() { err = f() })
		if err != nil {
			return fmt.Errorf("%s %s: %w", layer, name, err)
		}
		xs = append(xs, mibps(bytes, d))
	}
	l.out[metric] = medianOf(xs)
	return nil
}

// probes calls the bottom layers directly on the checkpoints of the
// workload's first recording, mirroring what a restore does (store get,
// section decode, value restore) and what a materialization does (value
// snapshot, section encode, frame encode, store put), one call at a time.
func (l *layerRun) probes() error {
	e := l.e
	r := e.runs[0]

	var opens []float64
	var st *store.Store
	for i := 0; i < probeReps; i++ {
		var err error
		opens = append(opens, ms(l.tr.timed("store", "OpenReadOnly", 0, func() { st, err = store.OpenReadOnly(r.dir) })))
		if err != nil {
			return err
		}
	}
	l.out["store.open_ms"] = medianOf(opens)
	recorded := r.rec.Recording.Store
	l.out["store.dedup_ratio"] = single(recorded.Dedup().Ratio())
	l.out["store.stored_mib"] = single(mib(recorded.TotalSize()))

	metas := st.Metas()
	if len(metas) == 0 {
		return fmt.Errorf("the recording of %s holds no checkpoint to probe", r.id)
	}
	var logical int64
	for _, m := range metas {
		logical += m.Size
	}
	var captured [][]store.Section
	var capturedBytes int64
	err := l.rate("store.get_mibps", "store", "GetSectionsObserved", logical, func() error {
		captured, capturedBytes = nil, 0
		for _, m := range metas {
			secs, ok, err := st.GetSectionsObserved(m.Key, nil, nil)
			if err != nil || !ok {
				return fmt.Errorf("get %s: ok=%v: %w", m.Key, ok, err)
			}
			if capturedBytes+m.Size <= captureCap || captured == nil {
				captured = append(captured, secs)
				capturedBytes += m.Size
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Restore path below the store: sections to payloads to live values.
	var items [][]backmat.NamedPayload
	err = l.rate("codec.decode_mibps", "backmat", "DecodeSections", capturedBytes, func() error {
		items = items[:0]
		for _, secs := range captured {
			it, err := backmat.DecodeSections(secs)
			if err != nil {
				return err
			}
			items = append(items, it)
		}
		return nil
	})
	if err != nil {
		return err
	}
	env := script.NewEnv()
	if err := script.ExecStmts(&script.Ctx{Env: env, Log: func(string) {}}, r.factory().Setup); err != nil {
		return err
	}
	err = l.rate("value.restore_mibps", "value", "Restore", capturedBytes, func() error {
		for _, ckpt := range items {
			for _, it := range ckpt {
				if err := env.MustGet(it.Name).Restore(it.Payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Materialization path above the store: live values to payloads to
	// sections, as many times as checkpoints were captured.
	var liveBytes int64
	for _, it := range items[0] {
		liveBytes += int64(env.MustGet(it.Name).SizeBytes())
	}
	liveBytes *= int64(len(captured))
	var snaps []backmat.NamedPayload
	err = l.rate("value.snapshot_mibps", "value", "Snapshot", liveBytes, func() error {
		for range captured {
			snaps = snaps[:0]
			for _, it := range items[0] {
				snaps = append(snaps, backmat.NamedPayload{Name: it.Name, Payload: env.MustGet(it.Name).Snapshot()})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = l.rate("codec.encode_mibps", "backmat", "EncodeSections", liveBytes, func() error {
		for range captured {
			backmat.EncodeSections(snaps)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Frame styles, on the captured sections cut into the store's chunks.
	var chunks [][]byte
	var chunkBytes int64
	for _, secs := range captured {
		for _, sec := range secs {
			for _, c := range codec.SplitChunks(sec.Data, ckptfmt.DefaultChunkSize) {
				if chunkBytes+int64(len(c)) <= codecCap || chunks == nil {
					chunks = append(chunks, c)
					chunkBytes += int64(len(c))
				}
			}
		}
	}
	for _, style := range []struct {
		name string
		b    byte
	}{{"raw", ckptfmt.StyleRaw}, {"lz4", ckptfmt.StyleLZ4}, {"deflate", ckptfmt.StyleDeflate}} {
		var frames []ckptfmt.Frame
		err = l.rate("ckptfmt.encode_mibps."+style.name, "ckptfmt", "EncodeChunksStyle."+style.name, chunkBytes, func() error {
			frames = ckptfmt.EncodeChunksStyle(chunks, style.b)
			return nil
		})
		if err != nil {
			return err
		}
		err = l.rate("ckptfmt.decode_mibps."+style.name, "ckptfmt", "DecodeAll."+style.name, chunkBytes, func() error {
			got, err := ckptfmt.DecodeAll(frames)
			if err == nil && !slices.EqualFunc(got, chunks, bytes.Equal) {
				err = fmt.Errorf("decoded chunks differ from the encoded ones")
			}
			return err
		})
		if err != nil {
			return err
		}
	}

	// The store's write path: the captured checkpoints into an empty store
	// (every chunk new to it, except what the checkpoints share among
	// themselves), then again under other keys (every chunk present).
	var fresh, dup []float64
	for i := 0; i < probeReps; i++ {
		dir := filepath.Join(e.dir, "probe-put", fmt.Sprint(i))
		ws, err := store.OpenWith(dir, store.Options{})
		if err != nil {
			return err
		}
		put := func(name string, exec0 int) float64 {
			d := l.tr.timed("store", name, 0, func() {
				for j, secs := range captured {
					if _, perr := ws.PutSections(store.Key{LoopID: "probe", Exec: exec0 + j}, secs, 0, 0, 0); perr != nil && err == nil {
						err = perr
					}
				}
			})
			return mibps(capturedBytes, d)
		}
		fresh = append(fresh, put("PutSections.fresh", 0))
		dup = append(dup, put("PutSections.dedup", len(captured)))
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l.out["store.put_mibps"] = medianOf(fresh)
	l.out["store.put_dedup_mibps"] = medianOf(dup)
	return nil
}
