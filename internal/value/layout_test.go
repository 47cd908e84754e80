package value

import (
	"bytes"
	"slices"
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// params is an nn.Module over a fixed parameter list.
type params []nn.Param

func (p params) Params() []nn.Param { return p }

func param(name string, t *tensor.Tensor) nn.Param {
	return nn.Param{Name: name, Var: autograd.NewParam(t)}
}

// encodeLive is EncodeLive's bytes for v.
func encodeLive(v Value) []byte {
	w := codec.NewWriter()
	EncodeLive(w, v)
	return w.Bytes()
}

// TestLiveLayoutIsEncodeLive pins the layout's one invariant: its pieces,
// read back in order, are byte for byte what EncodeLive writes for the value
// — so a section recorded from an identically structured value fills every
// structure byte with what the layout expects (Matches) and every float
// block with the tensor's own bytes. Parameters out of name order, empty
// tensors and scalars included.
func TestLiveLayoutIsEncodeLive(t *testing.T) {
	rng := xrand.New(5)
	vals := map[string]Value{
		"tensor":       &Tensor{T: tensor.Randn(rng, 1, 3, 4)},
		"empty tensor": &Tensor{T: tensor.New(0, 5)},
		"scalar":       &Tensor{T: tensor.Scalar(2.5)},
		"mlp":          &Model{M: nn.NewResidualMLP(xrand.New(7), 8, 16, 16, 2, 3)},
		"unsorted": &Model{M: params{
			param("z", tensor.Randn(rng, 1, 2)), param("a", tensor.New(0)), param("m.w", tensor.Randn(rng, 1, 3, 2)),
			param("m", tensor.Scalar(1)), param("b", tensor.New(2, 0, 3)),
		}},
		"no params": &Model{M: params{}},
	}
	for name, v := range vals {
		l := LiveLayout(v)
		if l == nil {
			t.Fatalf("%s: no layout", name)
		}
		want := encodeLive(v)
		if l.Len() != len(want) {
			t.Fatalf("%s: layout tiles %d bytes, EncodeLive writes %d", name, l.Len(), len(want))
		}
		if l.Matches() {
			t.Fatalf("%s: a fresh layout's scratch already matches", name)
		}
		// Play the read of the section EncodeLive wrote.
		playRead(l, want)
		if !l.Matches() || !bytes.Equal(l.Bytes(), want) {
			t.Fatalf("%s: layout read back differs from EncodeLive (matches %v)", name, l.Matches())
		}
	}
}

// playRead plays a read of the section src into l: every piece gets its
// bytes of src, so float pieces are written with what they already hold.
func playRead(l *Layout, src []byte) {
	for _, p := range l.Pieces {
		src = src[copy(p, src):]
	}
}

// TestLiveLayoutDeclines pins where a read cannot be a restore: kinds whose
// Restore is more than a copy per tensor, a model with two parameters of one
// name (Restore copies one entry into both), and a model whose parameters
// share memory (a read would land in it twice, concurrently).
func TestLiveLayoutDeclines(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 3, 2)
	shared := make([]float64, 10)
	for name, v := range map[string]Value{
		"optimizer":     &Optimizer{O: opt.NewSGD(m, 0.1, 0.9, 0)},
		"int":           &Int{V: 3},
		"rng":           &RNG{R: xrand.New(1)},
		"opaque":        &Opaque{},
		"duplicate":     &Model{M: params{param("w", tensor.New(2)), param("w", tensor.New(2))}},
		"tied":          &Model{M: params{param("a", tensor.FromSlice(shared[:6], 6)), param("b", tensor.FromSlice(shared[4:], 6))}},
		"one tensor x2": &Model{M: params{m.Params()[0], {Name: "again", Var: m.Params()[0].Var}}},
	} {
		if l := LiveLayout(v); l != nil {
			t.Errorf("%s: laid out (%d pieces); want the general path", name, len(l.Pieces))
		}
	}
	// Adjacent, not overlapping: fine, and disjoint from a third layout
	// unless that one covers their memory too.
	a := LiveLayout(&Model{M: params{param("a", tensor.FromSlice(shared[:5], 5)), param("b", tensor.FromSlice(shared[5:], 5))}})
	if a == nil {
		t.Fatal("adjacent parameters declined")
	}
	if b := LiveLayout(&Tensor{T: tensor.FromSlice(shared[9:], 1)}); b == nil || a.Disjoint(b) || b.Disjoint(a) {
		t.Fatal("a tensor inside a laid-out model's memory is reported disjoint")
	}
	if c := LiveLayout(&Tensor{T: tensor.New(4)}); c == nil || !a.Disjoint(c) {
		t.Fatal("a tensor of its own is reported overlapping")
	}
}

// TestLiveLayoutMismatchReadsBack pins the fallback: a section recorded from
// a differently structured value (a renamed parameter of the same length,
// a transposed shape of the same element count) tiles the same length but
// does not match, and Bytes returns exactly what was read, for the general
// path to decode.
func TestLiveLayoutMismatchReadsBack(t *testing.T) {
	rng := xrand.New(9)
	live := &Model{M: params{param("aa", tensor.Randn(rng, 1, 2, 3)), param("bb", tensor.Randn(rng, 1, 4))}}
	for name, rec := range map[string]Value{
		"renamed":    &Model{M: params{param("aa", tensor.Randn(rng, 1, 2, 3)), param("bc", tensor.Randn(rng, 1, 4))}},
		"transposed": &Model{M: params{param("aa", tensor.Randn(rng, 1, 3, 2)), param("bb", tensor.Randn(rng, 1, 4))}},
	} {
		l := LiveLayout(live)
		section := encodeLive(rec)
		if l.Len() != len(section) {
			t.Fatalf("%s: lengths differ (%d vs %d); the case no longer reaches the structure check", name, l.Len(), len(section))
		}
		playRead(l, section)
		if l.Matches() {
			t.Fatalf("%s: a differently structured section matched", name)
		}
		if !bytes.Equal(l.Bytes(), section) {
			t.Fatalf("%s: Bytes is not the section read", name)
		}
	}
}

// TestLayoutFitsUntilTheTensorsChange pins when a layout built for a value
// may serve another read: while the value holds the same tensors under the
// same names in the same order. A parameter given a new tensor, renamed,
// added or reordered, or a value of another kind, needs a new layout.
func TestLayoutFitsUntilTheTensorsChange(t *testing.T) {
	rng := xrand.New(3)
	ps := params{param("a", tensor.Randn(rng, 1, 4)), param("b", tensor.Randn(rng, 1, 2, 2))}
	m := &Model{M: ps}
	l := LiveLayout(m)
	if !l.Fits(m) || !l.Fits(&Model{M: slices.Clone(ps)}) {
		t.Fatal("a layout does not fit the value it was built for")
	}
	for name, other := range map[string]Value{
		"new tensor": &Model{M: params{ps[0], param("b", tensor.Randn(rng, 1, 2, 2))}},
		"renamed":    &Model{M: params{ps[0], {Name: "c", Var: ps[1].Var}}},
		"added":      &Model{M: params{ps[0], ps[1], param("c", tensor.New(1))}},
		"reordered":  &Model{M: params{ps[1], ps[0]}},
		"a tensor":   &Tensor{T: ps[0].Var.Value},
	} {
		if l.Fits(other) {
			t.Errorf("%s: the old layout still fits", name)
		}
	}
	tl := LiveLayout(&Tensor{T: ps[0].Var.Value})
	if !tl.Fits(&Tensor{T: ps[0].Var.Value}) || tl.Fits(&Tensor{T: ps[1].Var.Value}) || tl.Fits(&Model{M: params{ps[0]}}) {
		t.Fatal("a tensor's layout fits by tensor identity alone")
	}
}
