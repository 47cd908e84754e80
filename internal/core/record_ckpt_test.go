package core_test

import (
	"runtime"
	"testing"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// ckptHeavy is the materialization-bound program florperf's record_ckpt
// workload records: a tensor the training loop names but never writes, a
// tensor it rewrites in full every epoch from a seeded generator, and no
// other compute. Recording it is all capture, hashing, dedup and pack writes.
func ckptHeavy(seed uint64, frozenMiB, hotMiB, epochs int) func() *script.Program {
	const perMiB = (1 << 20) / 8
	fill := func(t *tensor.Tensor, r *xrand.RNG) {
		d := t.Data()
		for i := range d {
			d[i] = r.Float64()
		}
	}
	return func() *script.Program {
		update := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
			script.AssignFunc([]string{"hot", "frozen", "rng"}, "rewrite", []string{"hot", "rng"}, func(e *script.Env) error {
				fill(e.MustGet("hot").(*value.Tensor).T, e.MustGet("rng").(*value.RNG).R)
				return nil
			}),
		}}
		return &script.Program{
			Name: "ckptheavy",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"hot", "frozen", "rng"}, "build", nil, func(e *script.Env) error {
					r := xrand.New(seed)
					frozen := tensor.New(frozenMiB * perMiB)
					fill(frozen, r)
					e.Set("frozen", &value.Tensor{T: frozen})
					e.Set("hot", &value.Tensor{T: tensor.New(hotMiB * perMiB)})
					e.Set("rng", &value.RNG{R: r})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LoopStmt(update),
			}},
		}
	}
}

// BenchmarkRecordCkptHeavy records florperf's record_ckpt program (6 MiB
// never-written + 2 MiB rewritten, 12 checkpoints, adaptivity off) once per
// iteration. Run with -benchmem: B/op is what one recording allocates, the
// number the write path's copy budget is stated in.
func BenchmarkRecordCkptHeavy(b *testing.B) {
	factory := ckptHeavy(21, 6, 2, 12)
	b.ReportAllocs()
	for b.Loop() {
		res, err := core.Record(b.TempDir(), factory, core.RecordOptions{DisableAdaptive: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.MatStats.Checkpoints != 12 {
			b.Fatalf("materialized %d checkpoints, want 12", res.MatStats.Checkpoints)
		}
	}
}

// TestRecordRetainsNothingCheckpointSized: a Recording outlives its record
// run — a benchmark's set-up, a notebook session, flord's caches all hold
// several — so nothing the write path staged may stay reachable from it. With
// the Recording of an 8 MiB-per-checkpoint run still held, the heap is back
// within 1 MiB of where it was before the call: section buffers died with the
// materializer, and the store parked no staging slice on its pool or shards.
func TestRecordRetainsNothingCheckpointSized(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	factory := ckptHeavy(21, 6, 2, 6)
	dir := t.TempDir()
	before := heap()
	res, err := core.Record(dir, factory, core.RecordOptions{DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	if res.MatStats.Checkpoints != 6 || res.MatStats.BytesWritten < 6*(8<<20) {
		t.Fatalf("recorded %+v, want six 8 MiB checkpoints", res.MatStats)
	}
	if after > before+1<<20 {
		t.Fatalf("%d bytes stay reachable from a finished recording (heap %d before, %d after)", after-before, before, after)
	}
	runtime.KeepAlive(res)
}
