package skipblock

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// tensorSpec is one named parameter of a generated model.
type tensorSpec struct {
	Name  string
	Shape []int
	Quant bool // values on four levels, so its bytes compress
}

// paramList is an nn.Module over a fixed parameter list.
type paramList []nn.Param

func (p paramList) Params() []nn.Param { return p }

// buildModel returns a zero-filled model of the given parameters.
func buildModel(spec []tensorSpec) paramList {
	m := make(paramList, len(spec))
	for i, s := range spec {
		m[i] = nn.Param{Name: s.Name, Var: autograd.NewParam(tensor.New(s.Shape...))}
	}
	return m
}

// stateDigest is the content hash of v's encoded live state: two values log
// the same digest exactly when their state is byte-equal.
func stateDigest(vs ...value.Value) string {
	w := codec.NewWriter()
	for _, v := range vs {
		value.EncodeLive(w, v)
	}
	return ckptfmt.HashChunk(w.Bytes()).String()
}

// directProgram records a model of the given parameters whose every value
// a one-iteration train loop redraws each epoch — noise, or one of four
// levels for a Quant parameter — and logs the digest of its state.
func directProgram(spec []tensorSpec, epochs int, seed uint64) *script.Program {
	train := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
		script.ExprMethod("net", "perturb", nil, func(e *script.Env) error {
			rng := xrand.New(seed + uint64(e.Int("epoch")))
			for i, p := range e.MustGet("net").(*value.Model).M.Params() {
				d := p.Var.Value.Data()
				for j := range d {
					if i < len(spec) && spec[i].Quant {
						d[j] = float64(rng.Intn(4))
					} else {
						d[j] = rng.NormFloat64()
					}
				}
			}
			return nil
		}),
	}}
	return &script.Program{
		Name: "directprog",
		Setup: []script.Stmt{
			script.AssignFunc([]string{"net"}, "build", nil, func(e *script.Env) error {
				e.Set("net", &value.Model{M: buildModel(spec)})
				return nil
			}),
		},
		Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
			script.LoopStmt(train),
			script.LogStmt("state", func(e *script.Env) (string, error) {
				return stateDigest(e.MustGet("net")), nil
			}),
		}},
	}
}

// recordIn records p into a fresh store at dir, a checkpoint every epoch,
// and returns the record log.
func recordIn(t *testing.T, dir string, p *script.Program) []string {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tracker := adapt.New(adapt.DefaultEpsilon)
	tracker.SetDisabled(true)
	mat := backmat.New(st, backmat.Fork)
	mat.SetObserver(tracker.NoteMaterialized)
	var logs []string
	runProgram(t, p, NewRuntime(p, tracker, mat, st), func(s string) { logs = append(logs, s) })
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	return logs
}

// replayOver replays p over st with its main loop probed, so every epoch's
// log statement loads the train loop's bound checkpoint, and returns the
// lines logged before the first error.
func replayOver(st *store.Store, p *script.Program) ([]string, error) {
	rt := NewRuntime(p, adapt.New(adapt.DefaultEpsilon), nil, st)
	rt.SetCache(backmat.NewPayloadCache(1))
	rt.SetMode(ModeReplayExec)
	rt.SetProbes(map[string]bool{"main": true})
	var logs []string
	ctx := &script.Ctx{Env: script.NewEnv(), Log: func(s string) { logs = append(logs, s) }, LoopHook: rt.Hook}
	return logs, script.Run(ctx, p)
}

// noFdBackend hides its readers' file descriptors, so reads take the staged
// strategy on every platform.
type noFdBackend struct{ store.Backend }

func (b noFdBackend) Open(name string) (store.BackendReader, error) {
	r, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ store.BackendReader }{r}, nil
}

// readPaths opens the recording in dir once per read strategy: local packs
// (vectored preadv on Linux), a wrapped backend (staged ReadAt), and a
// remote twin's extents with and without a cache tier.
func readPaths(t *testing.T, dir string) map[string]*store.Store {
	t.Helper()
	local, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := store.DirBackendAt(dir)
	staged, err := store.OpenWith(dir, store.Options{ReadOnly: true, Backend: noFdBackend{db}})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := cachetier.New("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	extent, _, _ := remoteTwinWith(t, dir, nil)
	tiered, _, _ := remoteTwinWith(t, dir, cache)
	return map[string]*store.Store{"vectored": local, "staged": staged, "extent": extent, "extent+cachetier": tiered}
}

// generalPath restores every recorded checkpoint of the train loop into a
// fresh model of spec through the general path — whole section buffers,
// decoded payloads, Value.Restore — and returns, per epoch, the digest of
// the result or the restore's error.
func generalPath(t *testing.T, st *store.Store, spec []tensorSpec, epochs int) []string {
	t.Helper()
	var out []string
	for e := 0; e < epochs; e++ {
		secs, err := readAll(st, store.Key{LoopID: "train", Exec: e})
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		items, err := backmat.DecodeSections(secs)
		if err != nil {
			t.Fatal(err)
		}
		net := &value.Model{M: buildModel(spec)}
		for _, it := range items {
			if err = net.Restore(it.Payload); err != nil {
				break
			}
		}
		if err != nil {
			out = append(out, "error: "+err.Error())
		} else {
			out = append(out, "state: "+stateDigest(net))
		}
	}
	return out
}

// chunk is the store's chunk size: section bytes are cut into frames here.
const chunk = ckptfmt.DefaultChunkSize

// directCase is one input of the direct-load property: the recorded model's
// parameters and what the generator aimed for.
type directCase struct {
	Kind    string
	Tensors []tensorSpec
	Seed    uint64
}

// genCase draws a case of one kind. "random" is a dozen parameters of small
// random shapes, zero-length ones included; "structure boundary" and "float
// boundary" put a filler parameter first whose float block ends just before
// the first chunk boundary — so the boundary falls inside the next
// parameter's name and shape — or runs across it; "iov" is 1200–1400 tiny
// parameters with a 64 KiB one every 100, so that a run of two chunks holds
// more pieces than one vectored read takes, then 1200–1500 with one every
// 600, so that one chunk does.
func genCase(kind string, r *rand.Rand) directCase {
	c := directCase{Kind: kind, Seed: r.Uint64()}
	names := map[string]bool{}
	name := func() string {
		for {
			b := make([]byte, 1+r.Intn(10))
			for i := range b {
				b[i] = byte('a' + r.Intn(26))
			}
			if s := string(b); !names[s] {
				names[s] = true
				return s
			}
		}
	}
	random := func(n int) {
		for i := 0; i < n; i++ {
			shape := make([]int, r.Intn(4))
			for j := range shape {
				if shape[j] = 1 + r.Intn(24); r.Intn(8) == 0 {
					shape[j] = 0
				}
			}
			c.Tensors = append(c.Tensors, tensorSpec{Name: name(), Shape: shape})
		}
	}
	switch kind {
	case "random":
		random(1 + r.Intn(12))
	case "structure boundary", "float boundary":
		random(1 + r.Intn(6))
		// In name order the filler "0" comes first and "1…" (a long name)
		// second. The section opens with the kind tag, the scalar count and
		// the tensor count; the filler's structure is its name's length and
		// byte, its rank and its 3-byte element count.
		n := len(c.Tensors) + 2
		base := 2 + uvarintLen(n) + 1 + 1 + 1 + 3
		k := (chunk - 1 - base) / 8 // the float block ends 1–8 bytes before the boundary
		if kind == "float boundary" {
			k += 1 + r.Intn(1000)
		}
		c.Tensors = append(c.Tensors,
			tensorSpec{Name: "0", Shape: []int{k}},
			tensorSpec{Name: "1" + strings.Repeat("x", 12), Shape: []int{3, 2}})
	case "iov":
		first := 1200 + r.Intn(200)
		for i, n := 0, first+1200+r.Intn(300); i < n; i++ {
			shape, every := []int{r.Intn(3)}, 100
			if i >= first {
				every = 600
			}
			if i%every == every-1 {
				shape = []int{8 << 10}
			}
			c.Tensors = append(c.Tensors, tensorSpec{Name: fmt.Sprintf("t%05d", i), Shape: shape})
		}
	}
	r.Shuffle(len(c.Tensors), func(i, j int) { c.Tensors[i], c.Tensors[j] = c.Tensors[j], c.Tensors[i] })
	return c
}

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// boundaryPieces reports, for a model laid out by value.LiveLayout, whether
// a chunk boundary falls strictly inside a structure piece and whether one
// falls strictly inside a float piece: the two places a frame's bytes are
// split between scratch and live memory.
func boundaryPieces(m paramList) (inStructure, inFloats bool) {
	l := value.LiveLayout(&value.Model{M: m})
	float := map[*byte]bool{}
	for _, p := range m {
		if d := p.Var.Value.Data(); len(d) > 0 {
			float[(*byte)(unsafe.Pointer(unsafe.SliceData(d)))] = true
		}
	}
	at := 0
	for _, p := range l.Pieces {
		for b := (at/chunk + 1) * chunk; b < at+len(p); b += chunk {
			if float[&p[0]] {
				inFloats = true
			} else {
				inStructure = true
			}
		}
		at += len(p)
	}
	return inStructure, inFloats
}

// chunkPieces counts, per chunk of a model's section, the pieces of its
// layout the chunk's bytes land in: the vector entries a direct read of
// that frame needs.
func chunkPieces(m paramList) []int {
	l := value.LiveLayout(&value.Model{M: m})
	counts := make([]int, (l.Len()+chunk-1)/chunk)
	at := 0
	for _, p := range l.Pieces {
		for k := at / chunk; k < len(counts) && k*chunk < at+len(p); k++ {
			counts[k]++
		}
		at += len(p)
	}
	return counts
}

// checkDirectLoad checks one recording of p in dir, a checkpoint per epoch,
// whose record logged recorded: the general path restores the recorded
// state, and a replay that loads each epoch's
// checkpoint straight into the live model logs it too, on every read
// strategy (vectored, staged through a wrapped backend, extents with and
// without a cache tier). Then a single flipped byte of the pack, picked by
// seed, fails every strategy with codec.ErrCorrupt: never a panic, never a
// success.
func checkDirectLoad(t *testing.T, what, dir string, p *script.Program, spec []tensorSpec, recorded []string, seed uint64) bool {
	t.Helper()
	paths := readPaths(t, dir)
	if general := generalPath(t, paths["vectored"], spec, len(recorded)); !slices.Equal(general, recorded) {
		t.Errorf("%s: the general path restores %v, the record logged %v", what, general, recorded)
		return false
	}
	for name, st := range paths {
		if logs, err := replayOver(st, p); err != nil || !slices.Equal(logs, recorded) {
			t.Errorf("%s, %s: replay logged %v (err %v), the record %v", what, name, logs, err, recorded)
			return false
		}
	}

	pack := filepath.Join(dir, "CHUNKS")
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	at := int(seed % uint64(len(raw)))
	raw[at] ^= 1 << (seed % 8)
	if err := os.WriteFile(pack, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, st := range readPaths(t, dir) {
		if logs, err := replayOver(st, p); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s, %s: byte %d of %d flipped: logged %d lines, err %v; want codec.ErrCorrupt", what, name, at, len(raw), len(logs), err)
			return false
		}
	}
	return true
}

// TestQuickDirectLoadMatchesGeneralPath is the property of the direct load
// path (checkDirectLoad) on the raw frames a store writes, whatever the
// model: random shapes with zero-length tensors, chunk boundaries inside
// structure bytes or inside float blocks, more tensors in one chunk than one
// vectored read takes.
func TestQuickDirectLoadMatchesGeneralPath(t *testing.T) {
	const epochs = 2
	for _, kind := range []string{"random", "structure boundary", "float boundary", "iov"} {
		cfg := &quick.Config{
			MaxCount: 3,
			Rand:     rand.New(rand.NewSource(int64(len(kind)))),
			Values: func(args []reflect.Value, r *rand.Rand) {
				args[0] = reflect.ValueOf(genCase(kind, r))
			},
		}
		prop := func(c directCase) bool {
			what := fmt.Sprintf("%s, %d tensors", c.Kind, len(c.Tensors))
			if s, f := boundaryPieces(buildModel(c.Tensors)); (c.Kind == "structure boundary" && !s) || (c.Kind == "float boundary" && !f) {
				t.Errorf("%s: the generator missed its boundary (in structure %v, in floats %v)", what, s, f)
				return false
			}
			if c.Kind == "iov" {
				// One frame's pieces, or two neighbours', exceed one preadv.
				counts, most := chunkPieces(buildModel(c.Tensors)), 0
				for k := range counts {
					most = max(most, counts[k])
					if k > 0 {
						most = max(most, counts[k-1]+counts[k])
					}
				}
				if most <= 1024 {
					t.Errorf("%s: at most %d pieces in one chunk or two; the case does not reach the vector limit", what, most)
					return false
				}
			}
			dir := t.TempDir()
			p := directProgram(c.Tensors, epochs, c.Seed)
			return checkDirectLoad(t, what, dir, p, c.Tensors, recordIn(t, dir, p), c.Seed)
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestDirectLoadReadsCompressedFixtures takes the read-compat frame styles
// through migration. Stores write raw frames only, so the deflate and LZ4
// recordings are committed: testdata/direct/{deflate,lz4}/<kind> were
// recorded by the last build that wrote those styles, forced to the style,
// from the "random", "structure boundary" and "float boundary" cases the
// property's generator drew for them (its second and third draw of each
// kind), with every tensor quantized to four levels so the frames compress;
// each keeps its checkpoints in segment-file directories, a layout no open
// reads. testdata/direct/cases.json holds each case and the log its record
// wrote. Each fixture refuses a read-only open with store.ErrLegacyLayout
// and keeps every byte; store.ReadLegacy decodes its compressed frames into
// a fresh store (what florctl migrate does), whose sections keep their
// content identities, and checkDirectLoad then holds on the migrated run.
// Compressed frames on the restore path are pinned in the store package
// (fetch_test.go).
func TestDirectLoadReadsCompressedFixtures(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "direct", "cases.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Style, Kind string
		Tensors     []tensorSpec
		Seed        uint64
		Logs        []string
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	styles := map[string]byte{"deflate": ckptfmt.StyleDeflate, "lz4": ckptfmt.StyleLZ4}
	if len(cases) != 6 {
		t.Fatalf("cases.json holds %d cases, want 3 kinds in 2 styles", len(cases))
	}
	for _, c := range cases {
		what := fmt.Sprintf("%s, %s, %d tensors", c.Kind, c.Style, len(c.Tensors))
		src := t.TempDir()
		if err := os.CopyFS(src, os.DirFS(filepath.Join("testdata", "direct", c.Style, strings.ReplaceAll(c.Kind, " ", "-")))); err != nil {
			t.Fatal(err)
		}
		pack, err := os.ReadFile(filepath.Join(src, "CHUNKS"))
		if err != nil {
			t.Fatal(err)
		}
		compressed := 0
		for off := 0; off < len(pack); {
			f, n, err := ckptfmt.Parse(pack[off:])
			if err != nil {
				t.Fatalf("%s: frame at %d: %v", what, off, err)
			}
			if f.Style == styles[c.Style] {
				compressed++
			}
			off += n
		}
		if compressed == 0 {
			t.Fatalf("%s: the fixture's pack holds no %s frame", what, c.Style)
		}
		before := treeBytes(t, src)
		if _, err := store.OpenReadOnly(src); !errors.Is(err, store.ErrLegacyLayout) {
			t.Fatalf("%s: read-only open: %v, want store.ErrLegacyLayout", what, err)
		}

		dir := t.TempDir()
		dst, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = store.ReadLegacy(src, func(m store.Meta, secs []store.Section) error {
			if _, err := dst.PutSections(m.Key, secs, m.SnapNs, m.MaterNs-m.SnapNs, m.ComputNs); err != nil {
				return err
			}
			ck, err := dst.Resolve(m.Key)
			if err != nil {
				return err
			}
			for _, sec := range secs {
				if got, _ := ck.Section(sec.Name); got.Hash != sec.Hash || got.RawLen != sec.RawLen {
					return fmt.Errorf("%s section %q: migrated as %s (%d bytes), read as %s (%d bytes)", m.Key, sec.Name, got.Hash, got.RawLen, sec.Hash, sec.RawLen)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: migrate: %v", what, err)
		}
		if !maps.Equal(before, treeBytes(t, src)) {
			t.Fatalf("%s: the refused open or the migration changed the fixture", what)
		}
		checkDirectLoad(t, what, dir, directProgram(c.Tensors, len(c.Logs), c.Seed), c.Tensors, c.Logs, c.Seed)
	}
}

// treeBytes reads every file under dir, keyed by its path relative to dir.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDirectLoadMismatchIsTodaysResult pins the cases a layout does not fit:
// the replayed program's model differs from the recorded one — a parameter
// renamed (same length, so the read is attempted and its structure check
// fails), a parameter resized (another section length), a transposed shape
// (same length, another structure), or an extra tensor in the checkpoint
// (Restore ignores it) — and the result, an error or the restored state, is
// exactly what the general path gives for the same checkpoint and model.
func TestDirectLoadMismatchIsTodaysResult(t *testing.T) {
	const epochs = 2
	rec := []tensorSpec{{Name: "conv", Shape: []int{40, 300}}, {Name: "fc.b", Shape: []int{7}}, {Name: "fc.w", Shape: []int{200, 210}}}
	with := func(edit func(s []tensorSpec) []tensorSpec) []tensorSpec {
		return edit(slices.Clone(rec))
	}
	cases := map[string][]tensorSpec{
		"renamed": with(func(s []tensorSpec) []tensorSpec { s[1].Name = "fc.c"; return s }),
		"resized": with(func(s []tensorSpec) []tensorSpec { s[2].Shape = []int{200, 211}; return s }),
		"transposed": with(func(s []tensorSpec) []tensorSpec {
			s[0].Shape = []int{300, 40}
			return s
		}),
		"extra checkpoint tensor": with(func(s []tensorSpec) []tensorSpec { return s[1:] }),
	}
	dir := t.TempDir()
	recorded := recordIn(t, dir, directProgram(rec, epochs, 3))
	for name, spec := range cases {
		for path, st := range readPaths(t, dir) {
			want := generalPath(t, st, spec, epochs)
			logs, err := replayOver(st, directProgram(spec, epochs, 3))
			switch {
			case strings.HasPrefix(want[0], "error: "):
				if err == nil || !strings.Contains(err.Error(), strings.TrimPrefix(want[0], "error: ")) || len(logs) != 0 {
					t.Errorf("%s, %s: replay logged %v, err %v; the general path fails with %q", name, path, logs, err, want[0])
				}
			case err != nil || !slices.Equal(logs, want):
				t.Errorf("%s, %s: replay logged %v, err %v; the general path restores %v", name, path, logs, err, want)
			case slices.Equal(logs, recorded):
				t.Errorf("%s, %s: the replay restored the recorded state into a different model", name, path)
			}
		}
	}
}

// TestDirectLoadBesideFirstTouchMoments pins a load that mixes the two
// paths: a log statement that reads an SGD-momentum optimizer loads its
// state (general path: the replay's fresh optimizer has no moments yet, so
// Restore allocates them) and, through it, the model (laid out, read
// straight into the live parameters). The replay logs, for every epoch,
// exactly the model and optimizer state the record logged.
func TestDirectLoadBesideFirstTouchMoments(t *testing.T) {
	const epochs = 4
	program := func() *script.Program {
		p := sgdProgram(epochs, nil)
		p.Main.Body[1] = script.LogStmt("state", func(e *script.Env) (string, error) {
			o := e.MustGet("optimizer")
			return stateDigest(o, e.MustGet("net")), nil
		})
		return p
	}
	dir := t.TempDir()
	recorded := recordIn(t, dir, program())
	for path, st := range readPaths(t, dir) {
		if logs, err := replayOver(st, program()); err != nil || !slices.Equal(logs, recorded) {
			t.Errorf("%s: replay logged %v, err %v; the record %v", path, logs, err, recorded)
		}
	}
}

// readAll reads every section of key's checkpoint into fresh buffers:
// Resolve, then ReadInto with no callback.
func readAll(st *store.Store, key store.Key) ([]store.Section, error) {
	c, err := st.Resolve(key)
	if err != nil {
		return nil, err
	}
	return c.ReadInto(nil, nil, nil, nil)
}
