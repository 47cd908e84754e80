package codec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"flor.dev/flor/internal/tensor"
)

// writeOp is one call on a Writer: the small encoders (varints, floats, bools,
// strings) and the bulk ones (byte blocks, tensors) that an edit script mixes.
type writeOp struct {
	kind int
	u    uint64
	b    []byte
	t    *tensor.Tensor
}

func (o writeOp) apply(w *Writer) {
	switch o.kind {
	case 0:
		w.Uvarint(o.u)
	case 1:
		w.Int(int(o.u) - 1<<20)
	case 2:
		w.Float64(float64(o.u) / 3)
	case 3:
		w.Bool(o.u&1 == 1)
	case 4:
		w.String(string(o.b))
	case 5:
		w.RawBytes(o.b)
	case 6:
		w.RawAppend(o.b)
	case 7:
		w.Tensor(o.t)
	case 8:
		w.Dense(Dense{T: o.t})
	}
}

func randomOp(r *rand.Rand) writeOp {
	o := writeOp{kind: r.Intn(9), u: uint64(r.Intn(1 << 21))}
	switch o.kind {
	case 4, 5, 6:
		o.b = make([]byte, r.Intn(5*compareGranule/2))
		r.Read(o.b)
	case 7, 8:
		o.t = tensor.New(r.Intn(compareGranule / 2)) // up to four granules of floats
		for i := range o.t.Data() {
			o.t.Data()[i] = r.Float64()
		}
	}
	return o
}

// edited returns o with one element of its payload changed and its encoded
// length kept: the in-place edit a training step makes to a tensor.
func (o writeOp) edited(r *rand.Rand) writeOp {
	switch {
	case len(o.b) > 0:
		o.b = bytes.Clone(o.b)
		o.b[r.Intn(len(o.b))] ^= 0x40
	case o.t != nil && o.t.Len() > 0:
		o.t = o.t.Clone()
		i := r.Intn(o.t.Len())
		if r.Intn(3) == 0 {
			i = o.t.Len() - 1 // equal until the last word
		}
		o.t.Data()[i] += 1
	default:
		o.u ^= 1 // same varint length
	}
	return o
}

func run(w *Writer, script []writeOp) []byte {
	for _, o := range script {
		o.apply(w)
	}
	return w.Bytes()
}

const compareGranule = 64

// referenceClean is what Clean must report: granule j of the new stream is
// clean exactly when the stream stayed in the handed array and the old stream
// has a granule j with the same extent and the same bytes.
func referenceClean(old, stream []byte, moved bool) []bool {
	clean := make([]bool, (len(stream)+compareGranule-1)/compareGranule)
	for j := range clean {
		lo, end := j*compareGranule, (j+1)*compareGranule
		hi := min(end, len(stream))
		clean[j] = !moved && hi == min(end, len(old)) && bytes.Equal(old[lo:hi], stream[lo:hi])
	}
	return clean
}

// TestQuickComparingWriterReportsExactlyTheUnchangedGranules drives seeded
// edit scripts — in-place edits, insertions, deletions, a changed tail — over
// a buffer prefilled with the unedited script's stream, at capacities that
// fit, fit exactly, and force the stream into a new array. The comparing
// Writer must produce the bytes a plain Writer produces, in place whenever the
// capacity allows, and report as clean exactly the granules a chunk-by-chunk
// compare of the old stream with the new one finds unchanged.
func TestQuickComparingWriterReportsExactlyTheUnchangedGranules(t *testing.T) {
	sawClean, sawDirty, sawMoved, sawShrink, sawGrow := false, false, false, false, false
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		script := make([]writeOp, 1+r.Intn(12))
		for i := range script {
			script[i] = randomOp(r)
		}
		old := bytes.Clone(run(NewWriter(), script))

		next := slices.Clone(script)
		for e := r.Intn(4); e > 0; e-- {
			i := r.Intn(len(next))
			switch r.Intn(5) {
			case 0:
				next = slices.Insert(next, i, randomOp(r))
			case 1:
				if len(next) > 1 {
					next = slices.Delete(next, i, i+1)
				}
			default:
				next[i] = next[i].edited(r)
			}
		}
		want := run(NewWriter(), next)

		capacity := len(old) + r.Intn(3)*r.Intn(8*compareGranule)
		handed := make([]byte, len(old), capacity)
		copy(handed, old)
		w := NewWriterInto(handed, compareGranule)
		if r.Intn(2) == 0 {
			w.Grow(len(want)) // capture pre-sizes; a short buffer moves here
		}
		got := run(w, next)
		moved := len(want) > capacity
		inPlace := len(got) == 0 || unsafe.SliceData(got) == unsafe.SliceData(handed)
		if !bytes.Equal(got, want) || inPlace == moved {
			t.Logf("seed %d: stream differs from the plain writer's (%d vs %d bytes) or in place = %v with capacity %d", seed, len(got), len(want), inPlace, capacity)
			return false
		}
		clean, ref := w.Clean(), referenceClean(old, want, moved)
		if !slices.Equal(clean, ref) {
			t.Logf("seed %d: old %d bytes, new %d, capacity %d\nclean     %v\nreference %v", seed, len(old), len(want), capacity, clean, ref)
			return false
		}
		sawClean = sawClean || slices.Contains(clean, true)
		sawDirty = sawDirty || (!moved && slices.Contains(clean, false))
		sawMoved = sawMoved || moved
		sawShrink = sawShrink || len(want) < len(old)
		sawGrow = sawGrow || (len(want) > len(old) && !moved)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
	if !(sawClean && sawDirty && sawMoved && sawShrink && sawGrow) {
		t.Fatalf("scripts never covered a case: clean %v dirty %v moved %v shrink %v grow-in-place %v", sawClean, sawDirty, sawMoved, sawShrink, sawGrow)
	}
}

// TestComparingWriterBoundaries pins the cases the property test reaches only
// by chance: a final partial granule, a stream that ends exactly on a granule
// boundary of a longer or shorter predecessor, and a writer that compares
// nothing.
func TestComparingWriterBoundaries(t *testing.T) {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	const g = compareGranule
	for _, c := range []struct {
		name     string
		old, new []byte
		want     []bool
	}{
		{"identical with a partial last granule", fill(2*g+5, 1), fill(2*g+5, 1), []bool{true, true, true}},
		{"last byte of the partial granule differs", fill(2*g+5, 1), append(fill(2*g+4, 1), 2), []bool{true, true, false}},
		{"shorter, ending mid-granule", fill(3*g, 1), fill(2*g+5, 1), []bool{true, true, false}},
		{"shorter, ending on a boundary", fill(3*g, 1), fill(2*g, 1), []bool{true, true}},
		{"longer than a predecessor that ended on a boundary", fill(2*g, 1), fill(2*g+5, 1), []bool{true, true, false}},
		{"longer than a predecessor that ended mid-granule", fill(g+5, 1), fill(2*g, 1), []bool{true, false}},
		{"empty predecessor", nil, fill(g, 1), []bool{false}},
		{"empty stream", fill(g, 1), nil, []bool{}},
	} {
		handed := make([]byte, len(c.old), 4*g)
		copy(handed, c.old)
		w := NewWriterInto(handed, g)
		w.RawAppend(c.new[:len(c.new)/3]) // the writes need not align with anything
		w.RawAppend(c.new[len(c.new)/3:])
		if got := w.Clean(); !bytes.Equal(w.Bytes(), c.new) || !slices.Equal(got, c.want) {
			t.Errorf("%s: clean %v, want %v", c.name, got, c.want)
		}
	}
	w := NewWriter()
	w.RawAppend(fill(3*g, 1))
	if w.Clean() != nil {
		t.Errorf("a writer with no buffer to compare against reported %v", w.Clean())
	}
}
