package backmat

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

const (
	chunkBytes  = ckptfmt.DefaultChunkSize
	chunkFloats = chunkBytes / 8
)

// changing is the state the change-aware capture tests checkpoint: one entry
// per way a section can differ from its predecessor in the same buffer.
type changing struct {
	rng    *xrand.RNG
	frozen *tensor.Tensor // never written after set-up: two chunks of floats
	hot    *tensor.Tensor // rewritten in full before every checkpoint: one chunk
	table  *tensor.Tensor // one row written per checkpoint: two chunks, 64 rows
	notes  *value.String  // grows, and shrinks back, across a chunk boundary
	moved  *tensor.Tensor // never written; its entry changes name mid-run
}

func newChanging(seed uint64) *changing {
	c := &changing{
		rng:    xrand.New(seed),
		frozen: tensor.New(2 * chunkFloats),
		hot:    tensor.New(chunkFloats),
		table:  tensor.New(64, 2*chunkFloats/64),
		notes:  &value.String{},
		moved:  tensor.New(chunkFloats + 100),
	}
	for _, t := range []*tensor.Tensor{c.frozen, c.table, c.moved} {
		c.fill(t.Data())
	}
	return c
}

func (c *changing) fill(d []float64) {
	for i := range d {
		d[i] = c.rng.Float64()
	}
}

// step is what the training loop does before checkpoint e, and vals what that
// checkpoint holds: the last entry is "moved" until checkpoint renameAt, then
// "moved-again" — same tensor, same bytes, another variable as far as a
// checkpoint can tell — and checkpoint shortAt drops it and the notes.
func (c *changing) step(e int) []NamedValue {
	c.fill(c.hot.Data())
	cols := c.table.Shape()[1]
	row := (e * 23) % 64
	c.fill(c.table.Data()[row*cols : (row+1)*cols])
	n := chunkBytes/2 + (e%3)*chunkBytes/3
	c.notes.V = strings.Repeat("epoch notes; ", n/13+1)[:n]

	name := "moved"
	if e >= renameAt {
		name = "moved-again"
	}
	vals := []NamedValue{
		{Name: "frozen", V: &value.Tensor{T: c.frozen}},
		{Name: "hot", V: &value.Tensor{T: c.hot}},
		{Name: "table", V: &value.Tensor{T: c.table}},
		{Name: "rng", V: &value.RNG{R: c.rng}},
		{Name: "notes", V: c.notes},
		{Name: name, V: &value.Tensor{T: c.moved}},
	}
	if e == shortAt {
		vals = vals[:4]
	}
	return vals
}

const (
	renameAt = 4
	shortAt  = 7
)

// TestCaptureVouchesOnlyForChunksItFoundUnchanged drives capture and the
// store's put by hand over one buffer set and checks every claim capture
// makes, both ways: a chunk it vouches for hashes to the hash it remembered
// (soundness — what the store's hook checks on every put of a race build), and
// the chunks it does not vouch for are the ones the step changed, no more
// (otherwise the path is sound and useless).
func TestCaptureVouchesOnlyForChunksItFoundUnchanged(t *testing.T) {
	st := newStore(t)
	c := newChanging(3)
	var set bufferSet
	claims := func(name string) []bool {
		i := slices.IndexFunc(set.secs, func(s store.Section) bool { return s.Name == name })
		if i < 0 {
			t.Fatalf("no section %q", name)
		}
		return set.known[i].Clean
	}
	all := func(v bool, n int) []bool { return slices.Repeat([]bool{v}, n) }
	for e := 0; e < 10; e++ {
		set = capture(c.step(e), set)
		for i, sec := range set.secs {
			for j, chunk := range codec.SplitChunks(sec.Data, chunkBytes) {
				if j < len(set.known[i].Clean) && set.known[i].Clean[j] && ckptfmt.HashChunk(chunk) != set.known[i].Hashes[j] {
					t.Fatalf("checkpoint %d: capture vouches for chunk %d of %q with a hash that is not the chunk's", e, j, sec.Name)
				}
			}
		}
		switch {
		case e == 0:
			for _, sec := range set.secs {
				if slices.Contains(claims(sec.Name), true) {
					t.Fatalf("a fresh buffer set vouches for %q: %v", sec.Name, claims(sec.Name))
				}
			}
		case e == shortAt:
			// Four entries; the two dropped buffers stay in the set's backing
			// arrays for checkpoint shortAt+1 to find.
		default:
			// Each tensor's stream is a few header bytes and then its floats, so
			// a chunk of floats straddles two chunks of the stream.
			if got := claims("frozen"); !slices.Equal(got, all(true, 3)) {
				t.Fatalf("checkpoint %d: frozen tensor claims %v, want every chunk", e, got)
			}
			if got := claims("hot"); !slices.Equal(got, all(false, 2)) {
				t.Fatalf("checkpoint %d: rewritten tensor claims %v, want none", e, got)
			}
			if got := claims("table"); len(got) != 3 || !got[2] || slices.Equal(got, all(true, 3)) {
				t.Fatalf("checkpoint %d: tensor with one row written claims %v, want all but the row's chunk (or the two it straddles)", e, got)
			}
			// The notes grew or shrank: the length prefix in chunk 0 changed and
			// the chunk either stream ends in is not the chunk it was.
			if got := claims("notes"); len(got) == 0 || slices.Contains(got, true) {
				t.Fatalf("checkpoint %d: resized string claims %v, want none", e, got)
			}
			switch got := claims(set.secs[5].Name); {
			case e == renameAt && got != nil:
				t.Fatalf("checkpoint %d: entry renamed over identical bytes still claims %v", e, got)
			case e != renameAt && !slices.Equal(got, all(true, 2)):
				t.Fatalf("checkpoint %d: unwritten tensor claims %v under the name it had, want every chunk", e, got)
			}
		}
		if _, err := st.PutSectionsKnown(store.Key{LoopID: "train", Exec: e}, set.secs, set.known, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// layouts are the two layouts a recording can have: a private pack, and a
// run of a shared pool.
var layouts = []struct {
	name string
	opts func(t testing.TB, base string) store.Options
}{
	{"private", func(testing.TB, string) store.Options { return store.Options{} }},
	{"pooled", func(_ testing.TB, base string) store.Options {
		return store.Options{Pool: filepath.Join(base, "pool")}
	}},
}

// recordChanging materializes checkpoints of a fresh changing state under
// strat into base/run (and base/pool) and returns every file written, by path
// relative to base, the committed metas with their stopwatch fields zeroed,
// and each checkpoint as it reads back.
func recordChanging(t *testing.T, strat Strategy, opts func(testing.TB, string) store.Options, checkpoints int) (files map[string]string, metas []store.Meta, bundles [][]byte) {
	t.Helper()
	base := t.TempDir()
	st, err := store.OpenWith(filepath.Join(base, "run"), opts(t, base))
	if err != nil {
		t.Fatal(err)
	}
	c := newChanging(5)
	m := New(st, strat)
	for e := 0; e < checkpoints; e++ {
		m.Materialize(store.Key{LoopID: "train", Exec: e}, c.step(e), 0)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, meta := range st.Metas() {
		meta := *meta
		meta.MaterNs, meta.SnapNs = 0, 0
		metas = append(metas, meta)
		secs, err := readAll(st, meta.Key)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, BundleBytes(secs))
	}
	files = map[string]string{}
	err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(base, path)
		files[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, metas, bundles
}

// TestChangeAwareCaptureStoresWhatBaselineStores is the equivalence oracle of
// the change-aware capture path. Baseline has no buffer sets, encodes fresh
// snapshots and hashes every byte of them; Fork and Plasma compare, skip and
// offer. Over a run with a frozen tensor, a rewritten one, one where a single
// row changes, a value that changes length, an entry renamed mid-run and a
// checkpoint with fewer entries than its neighbours, on each writer layout,
// both must leave what Baseline leaves: segment files, packs, pool index and
// markers byte for byte, the manifest's metas field for field (bar the two
// durations a stopwatch fills in; the manifest's chunk records restate pack
// offsets and hashes the segment files already pin), and every checkpoint
// reading back as the same bytes.
func TestChangeAwareCaptureStoresWhatBaselineStores(t *testing.T) {
	const checkpoints = 10
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			wantFiles, wantMetas, wantBundles := recordChanging(t, Baseline, l.opts, checkpoints)
			if len(wantMetas) != checkpoints {
				t.Fatalf("Baseline committed %d checkpoints", len(wantMetas))
			}
			for _, strat := range []Strategy{Fork, Plasma} {
				files, metas, bundles := recordChanging(t, strat, l.opts, checkpoints)
				if !slices.Equal(metas, wantMetas) {
					t.Fatalf("%s: metas\n%+v\nBaseline's\n%+v", strat, metas, wantMetas)
				}
				for i := range bundles {
					if !bytes.Equal(bundles[i], wantBundles[i]) {
						t.Fatalf("%s: checkpoint %d reads back differently from Baseline's", strat, i)
					}
				}
				if len(files) != len(wantFiles) {
					t.Fatalf("%s wrote %d files, Baseline %d", strat, len(files), len(wantFiles))
				}
				for name, want := range wantFiles {
					got, ok := files[name]
					if !ok {
						t.Fatalf("%s did not write %s", strat, name)
					}
					if filepath.Base(name) == "MANIFEST" {
						continue // compared as metas above
					}
					if got != want {
						t.Fatalf("%s: %s differs from Baseline's (%d vs %d bytes)", strat, name, len(got), len(want))
					}
				}
			}
		})
	}
}
