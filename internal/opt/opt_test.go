package opt

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// trainStep runs one forward/backward/step on a toy problem and returns the
// loss.
func trainStep(m *nn.Linear, o Optimizer) float64 {
	tape := autograd.NewTape()
	nn.ZeroGrads(m)
	x := autograd.NewConst(tensor.FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2))
	loss := tape.SoftmaxCrossEntropy(m.Forward(tape, x), []int{0, 1, 1})
	tape.Backward(loss)
	o.Step()
	return loss.Value.Item()
}

func TestSGDReducesLoss(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.5, 0, 0)
	first := trainStep(m, o)
	var last float64
	for i := 0; i < 50; i++ {
		last = trainStep(m, o)
	}
	if last >= first {
		t.Fatalf("SGD did not reduce loss: %g -> %g", first, last)
	}
}

func TestSGDMomentumAcceleratesOnQuadratic(t *testing.T) {
	run := func(momentum float64) float64 {
		m := nn.NewLinear("fc", xrand.New(1), 2, 2)
		o := NewSGD(m, 0.1, momentum, 0)
		var last float64
		for i := 0; i < 30; i++ {
			last = trainStep(m, o)
		}
		return last
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum 0.9 did not converge faster than plain SGD on this problem")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.1, 0, 0.5)
	before := nn.WeightNorm(m)
	// Zero gradients by hand: only decay acts.
	for _, p := range m.Params() {
		p.Var.ZeroGrad()
	}
	tape := autograd.NewTape()
	x := autograd.NewConst(tensor.New(1, 2))
	loss := tape.MeanAll(m.Forward(tape, x))
	tape.Backward(loss)
	nn.ZeroGrads(m)
	o.Step()
	after := nn.WeightNorm(m)
	// With zeroed grads Step skips params (Grad non-nil but zero): decay
	// applies since Grad != nil.
	if after >= before {
		t.Fatalf("weight decay did not shrink weights: %g -> %g", before, after)
	}
}

func TestAdamWReducesLoss(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewAdamW(m, 0.05, 0)
	first := trainStep(m, o)
	var last float64
	for i := 0; i < 50; i++ {
		last = trainStep(m, o)
	}
	if last >= first {
		t.Fatalf("AdamW did not reduce loss: %g -> %g", first, last)
	}
}

func TestOptimizerSkipsFrozenParams(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	nn.Freeze(m, "fc.w")
	var frozen *tensor.Tensor
	for _, p := range m.Params() {
		if p.Name == "fc.w" {
			frozen = p.Var.Value.Clone()
		}
	}
	o := NewSGD(m, 0.5, 0.9, 0.1)
	for i := 0; i < 5; i++ {
		trainStep(m, o)
	}
	for _, p := range m.Params() {
		if p.Name == "fc.w" && !tensor.Equal(p.Var.Value, frozen) {
			t.Fatal("optimizer updated a frozen parameter")
		}
	}
}

func TestSGDSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.5, 0.9, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m, o)
	}
	snap := o.Snapshot()
	weights := nn.CloneState(m)

	// Diverge, then restore both optimizer and weights.
	for i := 0; i < 5; i++ {
		trainStep(m, o)
	}
	if err := o.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadState(m, weights); err != nil {
		t.Fatal(err)
	}

	// A fresh run from the same point must produce identical trajectories.
	m2 := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o2 := NewSGD(m2, 0.5, 0.9, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m2, o2)
	}
	for i := 0; i < 4; i++ {
		l1 := trainStep(m, o)
		l2 := trainStep(m2, o2)
		if l1 != l2 {
			t.Fatalf("restored trajectory diverged at step %d: %g vs %g", i, l1, l2)
		}
	}
}

func TestAdamWSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewAdamW(m, 0.05, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m, o)
	}
	snap := o.Snapshot()
	weights := nn.CloneState(m)
	for i := 0; i < 5; i++ {
		trainStep(m, o)
	}
	if err := o.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadState(m, weights); err != nil {
		t.Fatal(err)
	}
	m2 := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o2 := NewAdamW(m2, 0.05, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m2, o2)
	}
	for i := 0; i < 4; i++ {
		if l1, l2 := trainStep(m, o), trainStep(m2, o2); l1 != l2 {
			t.Fatalf("restored AdamW trajectory diverged at step %d: %g vs %g", i, l1, l2)
		}
	}
}

func TestRestoreRejectsMalformedState(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	if err := NewSGD(m, 0.1, 0, 0).Restore(NewState()); err == nil {
		t.Fatal("SGD.Restore accepted state without lr")
	}
	if err := NewAdamW(m, 0.1, 0).Restore(NewState()); err == nil {
		t.Fatal("AdamW.Restore accepted state without lr/step")
	}
	bad := NewState()
	bad.Scalars["lr"] = 0.1
	bad.Tensors["junk"] = codec.Dense{T: tensor.New(1)}
	if err := NewSGD(m, 0.1, 0, 0).Restore(bad); err == nil {
		t.Fatal("SGD.Restore accepted unknown tensor key")
	}
}

func TestStepLRDecaysAtBoundaries(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 1.0, 0, 0)
	s := NewStepLR(o, 2, 0.1)
	lrs := []float64{}
	for i := 0; i < 5; i++ {
		s.Step()
		lrs = append(lrs, o.LR())
	}
	want := []float64{1, 0.1, 0.1, 0.01, 0.01}
	for i := range want {
		if math.Abs(lrs[i]-want[i]) > 1e-12 {
			t.Fatalf("StepLR epoch %d lr = %g, want %g", i+1, lrs[i], want[i])
		}
	}
}

func TestCosineLRAnneals(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 1.0, 0, 0)
	s := NewCosineLR(o, 10)
	prev := o.LR()
	for i := 0; i < 10; i++ {
		s.Step()
		if o.LR() > prev+1e-12 {
			t.Fatalf("cosine LR increased at epoch %d: %g -> %g", i+1, prev, o.LR())
		}
		prev = o.LR()
	}
	if o.LR() > 1e-9 {
		t.Fatalf("cosine LR at tMax should be ~0, got %g", o.LR())
	}
	// Past tMax the LR stays pinned at 0.
	s.Step()
	if o.LR() > 1e-9 {
		t.Fatalf("cosine LR past tMax should stay 0, got %g", o.LR())
	}
}

func TestSchedulerSnapshotRestore(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 1.0, 0, 0)
	s := NewCosineLR(o, 10)
	for i := 0; i < 4; i++ {
		s.Step()
	}
	snap := s.Snapshot()
	lrAt4 := o.LR()
	for i := 0; i < 4; i++ {
		s.Step()
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	o.SetLR(lrAt4)
	s.Step()
	// Compare against a clean run advanced 5 steps.
	o2 := NewSGD(nn.NewLinear("fc", xrand.New(1), 2, 2), 1.0, 0, 0)
	s2 := NewCosineLR(o2, 10)
	for i := 0; i < 5; i++ {
		s2.Step()
	}
	if math.Abs(o.LR()-o2.LR()) > 1e-12 {
		t.Fatalf("restored scheduler diverged: %g vs %g", o.LR(), o2.LR())
	}
}

func TestStateCloneAndEqual(t *testing.T) {
	s := NewState()
	s.Scalars["x"] = 1.5
	s.Tensors["w"] = codec.Dense{T: tensor.FromSlice([]float64{1, 2}, 2)}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Tensors["w"].T.Set(9, 0)
	if s.Equal(c) {
		t.Fatal("clone shares tensor storage")
	}
	if s.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
}

func TestReferenceGraphExposed(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewAdamW(m, 0.1, 0)
	s := NewStepLR(o, 1, 0.5)
	if o.Model() != nn.Module(m) {
		t.Fatal("optimizer does not expose its model")
	}
	if s.Optimizer() != Optimizer(o) {
		t.Fatal("scheduler does not expose its optimizer")
	}
}

// asViews re-expresses a snapshot the way a checkpoint decoder delivers it:
// every tensor a codec.Dense view over one shared buffer, which is returned
// so a test can see whether anything wrote through a view.
func asViews(t *testing.T, st *State) (*State, []byte) {
	t.Helper()
	names := make([]string, 0, len(st.Tensors))
	w := codec.NewWriter()
	for k, d := range st.Tensors {
		names = append(names, k)
		w.Dense(d)
	}
	out := NewState()
	for k, v := range st.Scalars {
		out.Scalars[k] = v
	}
	r := codec.NewReader(w.Bytes())
	for _, k := range names {
		d, err := r.Dense()
		if err != nil {
			t.Fatal(err)
		}
		out.Tensors[k] = d
	}
	return out, w.Bytes()
}

// TestRestoreOverwritesOwnTensors pins what restoring by overwrite must not
// break, for both optimizers and both forms of a snapshot: an entry the
// snapshot lacks is deleted, a shape change reallocates, the snapshot stays
// bit-identical whatever the optimizer does next, and one snapshot restored
// into two optimizers gives them independent tensors.
func TestRestoreOverwritesOwnTensors(t *testing.T) {
	kinds := []struct {
		name   string
		build  func(m nn.Module) Optimizer
		absent []string // entries dropped for the deletion case
		grown  string   // entry given a new shape
	}{
		{"SGD", func(m nn.Module) Optimizer { return NewSGD(m, 0.5, 0.9, 0.01) }, []string{"vel.fc.b"}, "vel.fc.w"},
		{"AdamW", func(m nn.Module) Optimizer { return NewAdamW(m, 0.05, 0.01) }, []string{"m.fc.b", "v.fc.b"}, "m.fc.w"},
	}
	for _, k := range kinds {
		for _, form := range []string{"materialized", "view"} {
			t.Run(k.name+"/"+form, func(t *testing.T) {
				trained := func(steps int) (*nn.Linear, Optimizer) {
					m := nn.NewLinear("fc", xrand.New(1), 2, 2)
					o := k.build(m)
					for i := 0; i < steps; i++ {
						trainStep(m, o)
					}
					return m, o
				}
				_, src := trained(3)
				snap, ref := src.Snapshot(), src.Snapshot()
				var buf, bufRef []byte
				if form == "view" {
					snap, buf = asViews(t, snap)
					bufRef = append([]byte(nil), buf...)
				}
				intact := func(when string) {
					t.Helper()
					if !snap.Equal(ref) || !bytes.Equal(buf, bufRef) {
						t.Fatalf("%s: the snapshot restored from changed", when)
					}
				}

				// Independent tensors: step one of two optimizers restored from
				// the same snapshot; the other and the snapshot do not move.
				m1, o1 := trained(5)
				_, o2 := trained(1)
				if err := o1.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if err := o2.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if !o1.Snapshot().Equal(ref) || !o2.Snapshot().Equal(ref) {
					t.Fatal("restored optimizer state differs from the snapshot")
				}
				trainStep(m1, o1)
				if o1.Snapshot().Equal(ref) {
					t.Fatal("Step did not move the restored optimizer")
				}
				if !o2.Snapshot().Equal(ref) {
					t.Fatal("two optimizers restored from one snapshot share tensors")
				}
				intact("Step after Restore")

				// Deletion: entries the snapshot lacks disappear.
				pruned := &State{Scalars: snap.Scalars, Tensors: map[string]codec.Dense{}}
				for name, d := range snap.Tensors {
					if !slices.Contains(k.absent, name) {
						pruned.Tensors[name] = d
					}
				}
				if err := o1.Restore(pruned); err != nil {
					t.Fatal(err)
				}
				if got := o1.Snapshot(); !got.Equal(pruned) {
					t.Fatalf("after restoring a snapshot without %v the optimizer holds %d tensors, want %d", k.absent, len(got.Tensors), len(pruned.Tensors))
				}

				// Shape change: the entry is reallocated, not written through.
				grown := &State{Scalars: snap.Scalars, Tensors: map[string]codec.Dense{}}
				for name, d := range snap.Tensors {
					grown.Tensors[name] = d
				}
				grown.Tensors[k.grown] = codec.Dense{T: tensor.Full(7, 3, 5)}
				if err := o2.Restore(grown); err != nil {
					t.Fatal(err)
				}
				if got := o2.Snapshot(); !got.Equal(grown) {
					t.Fatalf("restored %s has shape %v, want [3 5]", k.grown, got.Tensors[k.grown].Shape())
				}
				intact("restores of edited snapshots")
			})
		}
	}
}
