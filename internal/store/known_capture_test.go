package store_test

import (
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// TestSteadyStateRecordingHashesOnlyWhatChanged is the count pin of the
// change-aware capture path, on a recording shaped like florperf's ckptheavy:
// a tensor never written (six chunks), one rewritten in full before every
// checkpoint (two chunks) and the generator's state. The first two checkpoints
// fill the materializer's two buffer sets and hash everything; from the third
// on, each put hashes at most the bytes that changed plus one chunk per
// section (the granule a section's header shares with its first floats), and
// every chunk it did not hash still counts as the dedup hit it is. The hook
// re-hashes every offered chunk, so the count is of hashes that were owed.
func TestSteadyStateRecordingHashesOnlyWhatChanged(t *testing.T) {
	const (
		chunk       = ckptfmt.DefaultChunkSize
		perChunk    = chunk / 8
		checkpoints = 6
	)
	for _, strat := range []backmat.Strategy{backmat.Fork, backmat.Plasma} {
		t.Run(strat.String(), func(t *testing.T) {
			hashed := store.VerifyOffers(t)
			obs.Enable()
			t.Cleanup(obs.Disable)
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(7)
			fill := func(t *tensor.Tensor) {
				for i := range t.Data() {
					t.Data()[i] = rng.Float64()
				}
			}
			frozen, hot := tensor.New(6*perChunk), tensor.New(2*perChunk)
			fill(frozen)
			vals := []backmat.NamedValue{
				{Name: "frozen", V: &value.Tensor{T: frozen}},
				{Name: "hot", V: &value.Tensor{T: hot}},
				{Name: "rng", V: &value.RNG{R: rng}},
			}
			changed := int64(vals[1].V.SizeBytes() + vals[2].V.SizeBytes())
			hits := obs.C(obs.MStoreChunkDedupHits)

			m := backmat.New(st, strat)
			for e := 0; e < checkpoints; e++ {
				fill(hot)
				before, hitsBefore := hashed.Load(), hits.Value()
				m.Materialize(store.Key{LoopID: "train", Exec: e}, vals, 0)
				if err := m.Drain(); err != nil {
					t.Fatal(err)
				}
				got := hashed.Load() - before
				if e < 2 {
					if got < int64(8*chunk) {
						t.Fatalf("checkpoint %d fills a fresh buffer set and hashed only %d bytes", e, got)
					}
					continue
				}
				if limit := changed + int64(len(vals)*chunk); got > limit {
					t.Fatalf("checkpoint %d hashed %d bytes; %d changed, so at most %d were owed", e, got, changed, limit)
				}
				if got < int64(2*perChunk*8) {
					t.Fatalf("checkpoint %d hashed %d bytes, less than the tensor rewritten before it", e, got)
				}
				if dh := hits.Value() - hitsBefore; dh < 5 {
					t.Fatalf("checkpoint %d counted %d dedup hits; its five untouched chunks are hits whether hashed or not", e, dh)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
