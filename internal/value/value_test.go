package value

import (
	"math"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// encodeDecode round-trips a payload through the tagged wire format.
func encodeDecode(t *testing.T, p Payload) Payload {
	t.Helper()
	w := codec.NewWriter()
	EncodePayload(w, p)
	got, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("decode %s payload: %v", p.Kind(), err)
	}
	return got
}

func TestPrimitiveSnapshotRestore(t *testing.T) {
	i := &Int{V: 7}
	snap := i.Snapshot()
	i.V = 99
	if err := i.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if i.V != 7 {
		t.Fatalf("Int restore = %d, want 7", i.V)
	}

	f := &Float{V: 2.5}
	fsnap := f.Snapshot()
	f.V = 0
	if err := f.Restore(encodeDecode(t, fsnap)); err != nil {
		t.Fatal(err)
	}
	if f.V != 2.5 {
		t.Fatalf("Float restore = %g", f.V)
	}

	s := &String{V: "epoch-3"}
	ssnap := s.Snapshot()
	s.V = "x"
	if err := s.Restore(encodeDecode(t, ssnap)); err != nil {
		t.Fatal(err)
	}
	if s.V != "epoch-3" {
		t.Fatalf("String restore = %q", s.V)
	}

	b := &Bool{V: true}
	bsnap := b.Snapshot()
	b.V = false
	if err := b.Restore(encodeDecode(t, bsnap)); err != nil {
		t.Fatal(err)
	}
	if !b.V {
		t.Fatal("Bool restore failed")
	}
}

func TestTensorSnapshotIsolatedFromLiveMutation(t *testing.T) {
	tb := &Tensor{T: tensor.FromSlice([]float64{1, 2, 3}, 3)}
	snap := tb.Snapshot()
	tb.T.Set(99, 0) // mutate live after snapshot
	if snap.(TensorPayload).T.At(0) != 1 {
		t.Fatal("snapshot aliased live tensor")
	}
	if err := tb.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if tb.T.At(0) != 1 {
		t.Fatal("tensor restore failed")
	}
}

func TestTensorRestorePreservesIdentity(t *testing.T) {
	// Restoring must copy into the existing tensor, not replace it: other
	// objects may hold references to the same storage.
	orig := tensor.FromSlice([]float64{1, 2}, 2)
	tb := &Tensor{T: orig}
	snap := tb.Snapshot()
	orig.Fill(0)
	if err := tb.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tb.T != orig {
		t.Fatal("restore replaced the tensor object")
	}
	if orig.At(1) != 2 {
		t.Fatal("restore did not write through to original storage")
	}
}

func TestTensorRestoreShapeMismatch(t *testing.T) {
	tb := &Tensor{T: tensor.New(2, 2)}
	if err := tb.Restore(TensorPayload{T: tensor.New(3)}); err == nil {
		t.Fatal("shape-mismatched restore succeeded")
	}
}

func TestModelSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewResidualMLP(xrand.New(1), 4, 8, 8, 2, 3)
	mv := &Model{M: m}
	snap := mv.Snapshot()
	for _, p := range m.Params() {
		p.Var.Value.Fill(42)
	}
	if err := mv.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	ref := nn.NewResidualMLP(xrand.New(1), 4, 8, 8, 2, 3)
	if !nn.StatesEqual(m, ref) {
		t.Fatal("model restore did not reproduce original weights")
	}
}

func TestOptimizerSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := opt.NewAdamW(m, 0.01, 0.1)
	// Give the optimizer some state.
	for _, p := range m.Params() {
		p.Var.Grad = tensor.Full(0.5, p.Var.Value.Shape()...)
	}
	o.Step()
	ov := &Optimizer{O: o}
	snap := ov.Snapshot()
	o.Step()
	o.Step()
	if err := ov.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if !o.Snapshot().Equal(snap.(StatePayload).S) {
		t.Fatal("optimizer restore did not reproduce snapshot state")
	}
}

func TestSchedulerSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := opt.NewSGD(m, 1, 0, 0)
	s := opt.NewCosineLR(o, 10)
	s.Step()
	s.Step()
	sv := &Scheduler{S: s}
	snap := sv.Snapshot()
	s.Step()
	if err := sv.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if !s.Snapshot().Equal(snap.(StatePayload).S) {
		t.Fatal("scheduler restore did not reproduce snapshot state")
	}
}

func TestRNGSnapshotRestoreResumesStream(t *testing.T) {
	r := xrand.New(7)
	rv := &RNG{R: r}
	r.Uint64()
	snap := rv.Snapshot()
	want := r.Uint64()
	r.Uint64() // advance further
	if err := rv.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if got := r.Uint64(); got != want {
		t.Fatalf("restored RNG drew %d, want %d", got, want)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	i := &Int{}
	if err := i.Restore(FloatPayload(1)); err == nil {
		t.Fatal("Int accepted Float payload")
	}
	tb := &Tensor{T: tensor.New(1)}
	if err := tb.Restore(IntPayload(1)); err == nil {
		t.Fatal("Tensor accepted Int payload")
	}
	m := &Model{M: nn.NewLinear("fc", xrand.New(1), 1, 1)}
	if err := m.Restore(RNGPayload{}); err == nil {
		t.Fatal("Model accepted RNG payload")
	}
}

func TestEqualSemantics(t *testing.T) {
	if (&Int{V: 1}).Equal(&Int{V: 2}) {
		t.Fatal("unequal ints compared equal")
	}
	if !(&Int{V: 1}).Equal(&Int{V: 1}) {
		t.Fatal("equal ints compared unequal")
	}
	if (&Int{V: 1}).Equal(&Float{V: 1}) {
		t.Fatal("cross-kind equality")
	}
	a := &Tensor{T: tensor.Full(1, 2)}
	b := &Tensor{T: tensor.Full(1, 2)}
	if !a.Equal(b) {
		t.Fatal("identical tensors unequal")
	}
	b.T.Set(2, 0)
	if a.Equal(b) {
		t.Fatal("different tensors equal")
	}
}

func TestStatePayloadDeterministicEncoding(t *testing.T) {
	st := opt.NewState()
	st.Scalars["zeta"] = 1
	st.Scalars["alpha"] = 2
	st.Tensors["m.b"] = codec.Dense{T: tensor.Full(1, 2)}
	st.Tensors["m.a"] = codec.Dense{T: tensor.Full(2, 2)}
	enc := func() []byte {
		w := codec.NewWriter()
		EncodePayload(w, StatePayload{S: st})
		return w.Bytes()
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatal("StatePayload encoding not deterministic (map iteration leaked)")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 4, 4)
	vals := []Value{
		&Int{}, &Float{}, &String{V: "x"}, &Bool{},
		&Tensor{T: tensor.New(3)},
		&Model{M: m},
		&Optimizer{O: opt.NewSGD(m, 0.1, 0.9, 0)},
		&Scheduler{S: opt.NewStepLR(opt.NewSGD(m, 0.1, 0, 0), 1, 0.5)},
		&RNG{R: xrand.New(1)},
	}
	for _, v := range vals {
		if v.SizeBytes() <= 0 {
			t.Fatalf("%s SizeBytes = %d", v.Kind(), v.SizeBytes())
		}
	}
}

// TestSizeBytesMatchesSnapshot pins the non-copying size count of optimizers
// and schedulers to the figure adaptive checkpointing has always been fed,
// the size of a snapshot, before and after state exists.
func TestSizeBytesMatchesSnapshot(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 3, 2)
	plain, mom, adam := opt.NewSGD(m, 0.1, 0, 0), opt.NewSGD(m, 0.1, 0.9, 0.01), opt.NewAdamW(m, 0.05, 0.01)
	for _, o := range []opt.Optimizer{plain, mom, adam} {
		for step := 0; step < 2; step++ {
			if got, want := (&Optimizer{O: o}).SizeBytes(), o.Snapshot().SizeBytes(); got != want {
				t.Fatalf("%T after %d steps: SizeBytes = %d, Snapshot().SizeBytes() = %d", o, step, got, want)
			}
			for _, p := range m.Params() {
				p.Var.Grad = tensor.Full(0.5, p.Var.Value.Shape()...)
			}
			o.Step()
		}
	}
	if (&Optimizer{O: mom}).SizeBytes() <= (&Optimizer{O: plain}).SizeBytes() {
		t.Fatal("momentum buffers not counted")
	}
	for _, s := range []opt.Scheduler{opt.NewStepLR(plain, 2, 0.5), opt.NewCosineLR(adam, 10)} {
		s.Step()
		if got, want := (&Scheduler{S: s}).SizeBytes(), s.Snapshot().SizeBytes(); got != want {
			t.Fatalf("%T: SizeBytes = %d, Snapshot().SizeBytes() = %d", s, got, want)
		}
	}
}

func TestModelSizeTracksParameters(t *testing.T) {
	small := &Model{M: nn.NewLinear("fc", xrand.New(1), 4, 4)}
	big := &Model{M: nn.NewLinear("fc", xrand.New(1), 64, 64)}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("larger model reported smaller size")
	}
}

func TestDecodeUnknownKindFails(t *testing.T) {
	w := codec.NewWriter()
	w.Uvarint(200)
	if _, err := DecodeTaggedPayload(codec.NewReader(w.Bytes())); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestQuickIntPayloadRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		w := codec.NewWriter()
		EncodePayload(w, IntPayload(v))
		got, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
		return err == nil && got.(IntPayload) == IntPayload(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntRestoreRefusesPayloadsBeyondInt pins that an int payload is
// restored exactly or refused: on a 32-bit build a value outside int's range
// fails the restore and leaves the box as it was, never truncated.
func TestIntRestoreRefusesPayloadsBeyondInt(t *testing.T) {
	for _, v := range []int64{0, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64, math.MinInt64} {
		b := &Int{V: 7}
		err := b.Restore(IntPayload(v))
		if v >= math.MinInt && v <= math.MaxInt {
			if err != nil || int64(b.V) != v {
				t.Fatalf("restore %d: V=%d err=%v", v, b.V, err)
			}
		} else if err == nil || b.V != 7 {
			t.Fatalf("restore %d into an int: V=%d err=%v; want refused and untouched", v, b.V, err)
		}
	}
}

func TestQuickRNGPayloadRoundTrip(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		r := xrand.New(seed)
		for i := 0; i < int(draws); i++ {
			r.Uint32()
		}
		rv := &RNG{R: r}
		w := codec.NewWriter()
		EncodePayload(w, rv.Snapshot())
		p, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
		if err != nil {
			return false
		}
		r2 := &RNG{R: xrand.New(0)}
		if err := r2.Restore(p); err != nil {
			return false
		}
		return r2.R.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLazyTensorPayloadEquivalence pins that the lazy wire-view form decoded
// by DecodePayload behaves identically to the materialized form: same encoded
// bytes, same restore result, same reported size, on-demand materialization.
func TestLazyTensorPayloadEquivalence(t *testing.T) {
	orig := tensor.Randn(xrand.New(9), 1, 5, 7)
	eager := TensorPayload{T: orig.Clone()}
	lazy := encodeDecode(t, eager).(TensorPayload)
	if lazy.T != nil {
		t.Fatal("decoded tensor payload materialized eagerly")
	}
	if got, want := lazy.SizeBytes(), eager.SizeBytes(); got != want {
		t.Fatalf("lazy SizeBytes = %d, eager = %d", got, want)
	}
	// Re-encoding the lazy form is byte-identical to encoding the tensor.
	we, wl := codec.NewWriter(), codec.NewWriter()
	EncodePayload(we, eager)
	EncodePayload(wl, lazy)
	if string(we.Bytes()) != string(wl.Bytes()) {
		t.Fatal("lazy re-encode diverges from materialized encode")
	}
	if !tensor.Equal(lazy.Tensor(), orig) {
		t.Fatal("on-demand materialization diverges")
	}
	// Restore through the zero-copy path writes through to live storage.
	live := &Tensor{T: tensor.New(5, 7)}
	if err := live.Restore(lazy); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(live.T, orig) {
		t.Fatal("lazy restore diverges")
	}
	// Shape mismatches are still rejected before any bytes move.
	bad := &Tensor{T: tensor.New(7, 5)}
	if err := bad.Restore(lazy); err == nil {
		t.Fatal("shape-mismatched lazy restore succeeded")
	}
}
