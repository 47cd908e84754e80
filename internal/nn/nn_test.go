package nn

import (
	"strings"
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

func TestLinearForwardShape(t *testing.T) {
	l := NewLinear("fc", xrand.New(1), 5, 3)
	x := autograd.NewConst(tensor.Full(1, 4, 5))
	out := l.Forward(autograd.NewTape(), x)
	if out.Value.Dim(0) != 4 || out.Value.Dim(1) != 3 {
		t.Fatalf("Linear output shape %v, want [4 3]", out.Value.Shape())
	}
}

func TestParamNamesUnique(t *testing.T) {
	models := map[string]Module{
		"convnet":   NewConvNet(xrand.New(1), 32, 4, 5, 3, 3, 10),
		"resmlp":    NewResidualMLP(xrand.New(2), 16, 32, 32, 12, 10),
		"xform":     NewTransformer(xrand.New(3), 50, 8, 16, 32, 2, 4),
		"speech":    NewConvSpeech(xrand.New(4), 40, 2, 5, 3, 16, 8),
		"rnnatt":    NewRNNAttention(xrand.New(5), 30, 8, 12),
		"resblock":  NewResidualBlock("rb", xrand.New(6), 8, 16),
		"attention": NewSelfAttention("sa", xrand.New(7), 8),
	}
	for name, m := range models {
		seen := map[string]bool{}
		for _, p := range m.Params() {
			if seen[p.Name] {
				t.Fatalf("%s: duplicate parameter name %q", name, p.Name)
			}
			seen[p.Name] = true
			if p.Var == nil || p.Var.Value == nil {
				t.Fatalf("%s: parameter %q has nil value", name, p.Name)
			}
		}
	}
}

// TestParamsBuiltOnceAndAppendSafe pins that every model hands out the one
// list its constructor built — no allocation per call — and that a caller's
// append copies rather than writing into the model's list.
func TestParamsBuiltOnceAndAppendSafe(t *testing.T) {
	models := map[string]Module{
		"convnet": NewConvNet(xrand.New(1), 32, 4, 5, 3, 3, 10),
		"resmlp":  NewResidualMLP(xrand.New(2), 16, 32, 32, 3, 10),
		"xform":   NewTransformer(xrand.New(3), 50, 8, 16, 32, 2, 4),
		"speech":  NewConvSpeech(xrand.New(4), 40, 2, 5, 3, 16, 8),
		"rnnatt":  NewRNNAttention(xrand.New(5), 30, 8, 12),
		"linear":  NewLinear("fc", xrand.New(6), 4, 3),
	}
	for name, m := range models {
		a, b := m.Params(), m.Params()
		if len(a) == 0 || &a[0] != &b[0] || len(a) != len(b) {
			t.Fatalf("%s: Params returned different slices on two calls", name)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = m.Params() }); allocs != 0 {
			t.Fatalf("%s: Params allocates %.0f times per call, want 0", name, allocs)
		}
		first := a[0]
		grown := append(a, Param{Name: "intruder"})
		grown[0].Name = "renamed"
		if c := m.Params(); len(c) != len(a) || c[0] != first {
			t.Fatalf("%s: appending to Params wrote into the model's list: %q", name, c[0].Name)
		}
	}
}

func TestParamOrderDeterministic(t *testing.T) {
	a := NewResidualMLP(xrand.New(2), 16, 32, 32, 12, 10)
	b := NewResidualMLP(xrand.New(2), 16, 32, 32, 12, 10)
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param count differs across identical constructions")
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param order differs at %d: %q vs %q", i, pa[i].Name, pb[i].Name)
		}
		if !tensor.Equal(pa[i].Var.Value, pb[i].Var.Value) {
			t.Fatalf("param %q differs across identical seeds", pa[i].Name)
		}
	}
}

func TestConvNetForward(t *testing.T) {
	m := NewConvNet(xrand.New(1), 32, 4, 5, 3, 3, 10)
	x := autograd.NewConst(tensor.Randn(xrand.New(2), 1, 6, 32))
	out := m.Forward(autograd.NewTape(), x)
	if out.Value.Dim(0) != 6 || out.Value.Dim(1) != 10 {
		t.Fatalf("ConvNet output %v, want [6 10]", out.Value.Shape())
	}
}

func TestResidualMLPForward(t *testing.T) {
	m := NewResidualMLP(xrand.New(1), 16, 24, 32, 8, 5)
	x := autograd.NewConst(tensor.Randn(xrand.New(2), 1, 3, 16))
	out := m.Forward(autograd.NewTape(), x)
	if out.Value.Dim(0) != 3 || out.Value.Dim(1) != 5 {
		t.Fatalf("ResidualMLP output %v, want [3 5]", out.Value.Shape())
	}
}

func TestTransformerClassify(t *testing.T) {
	m := NewTransformer(xrand.New(1), 50, 8, 16, 32, 2, 4)
	tokens := []int{1, 5, 9, 2, 0, 7, 3, 4}
	out := m.ClassifyLogits(autograd.NewTape(), tokens)
	if out.Value.Dim(0) != 1 || out.Value.Dim(1) != 4 {
		t.Fatalf("ClassifyLogits shape %v, want [1 4]", out.Value.Shape())
	}
}

func TestTransformerLM(t *testing.T) {
	m := NewTransformer(xrand.New(1), 50, 8, 16, 32, 2, 50)
	tokens := []int{1, 5, 9, 2, 0, 7, 3, 4}
	out := m.LMLogits(autograd.NewTape(), tokens)
	if out.Value.Dim(0) != 8 || out.Value.Dim(1) != 50 {
		t.Fatalf("LMLogits shape %v, want [8 50]", out.Value.Shape())
	}
}

func TestConvSpeechForward(t *testing.T) {
	m := NewConvSpeech(xrand.New(1), 40, 2, 5, 3, 16, 8)
	x := autograd.NewConst(tensor.Randn(xrand.New(2), 1, 4, 40))
	out := m.Forward(autograd.NewTape(), x)
	if out.Value.Dim(0) != 4 || out.Value.Dim(1) != 8 {
		t.Fatalf("ConvSpeech output %v, want [4 8]", out.Value.Shape())
	}
}

func TestRNNAttentionLogits(t *testing.T) {
	m := NewRNNAttention(xrand.New(1), 30, 8, 12)
	src := []int{1, 2, 3, 4, 5}
	tgt := []int{6, 7, 8}
	out := m.Logits(autograd.NewTape(), src, tgt)
	if out.Value.Dim(0) != 3 || out.Value.Dim(1) != 30 {
		t.Fatalf("RNNAttention logits %v, want [3 30]", out.Value.Shape())
	}
}

func TestFreezeBackbone(t *testing.T) {
	m := NewTransformer(xrand.New(1), 50, 8, 16, 32, 2, 4)
	total := len(m.Params())
	frozen := m.FreezeBackbone()
	if frozen == 0 || frozen >= total {
		t.Fatalf("froze %d of %d params; expected a strict subset", frozen, total)
	}
	for _, p := range m.Params() {
		isBackbone := strings.HasPrefix(p.Name, "backbone.")
		if isBackbone && p.Var.RequiresGrad() {
			t.Fatalf("backbone param %q still trainable", p.Name)
		}
		if !isBackbone && !p.Var.RequiresGrad() {
			t.Fatalf("head param %q was frozen", p.Name)
		}
	}
	trainable := TrainableParams(m)
	if len(trainable) != total-frozen {
		t.Fatalf("TrainableParams = %d, want %d", len(trainable), total-frozen)
	}
}

func TestFrozenBackboneExcludedFromGradients(t *testing.T) {
	m := NewTransformer(xrand.New(1), 50, 8, 16, 32, 2, 4)
	m.FreezeBackbone()
	tape := autograd.NewTape()
	loss := tape.SoftmaxCrossEntropy(m.ClassifyLogits(tape, []int{1, 2, 3, 4, 5, 6, 7, 0}), []int{2})
	tape.Backward(loss)
	for _, p := range m.Params() {
		if strings.HasPrefix(p.Name, "backbone.") && p.Var.Grad != nil && p.Var.Grad.Norm() != 0 {
			t.Fatalf("frozen param %q received gradient", p.Name)
		}
	}
	headGrads := 0
	for _, p := range TrainableParams(m) {
		if p.Var.Grad != nil && p.Var.Grad.Norm() > 0 {
			headGrads++
		}
	}
	if headGrads == 0 {
		t.Fatal("no head parameter received a gradient")
	}
}

func TestCloneLoadStateRoundTrip(t *testing.T) {
	m := NewResidualMLP(xrand.New(1), 8, 12, 16, 3, 4)
	snap := CloneState(m)
	// Perturb, then restore.
	for _, p := range m.Params() {
		p.Var.Value.Fill(42)
	}
	if err := LoadState(m, snap); err != nil {
		t.Fatal(err)
	}
	m2 := NewResidualMLP(xrand.New(1), 8, 12, 16, 3, 4)
	if !StatesEqual(m, m2) {
		t.Fatal("restored state differs from same-seed reconstruction")
	}
}

func TestLoadStateMissingParam(t *testing.T) {
	m := NewLinear("fc", xrand.New(1), 2, 2)
	err := LoadState(m, map[string]*tensor.Tensor{})
	if err == nil {
		t.Fatal("LoadState with empty map should fail")
	}
}

func TestLoadStateShapeMismatch(t *testing.T) {
	m := NewLinear("fc", xrand.New(1), 2, 2)
	err := LoadState(m, map[string]*tensor.Tensor{
		"fc.w": tensor.New(3, 3),
		"fc.b": tensor.New(2),
	})
	if err == nil {
		t.Fatal("LoadState with wrong shape should fail")
	}
}

func TestGradAndWeightNorms(t *testing.T) {
	m := NewLinear("fc", xrand.New(1), 4, 2)
	if GradNorm(m) != 0 {
		t.Fatal("GradNorm before backward should be 0")
	}
	if WeightNorm(m) <= 0 {
		t.Fatal("WeightNorm should be positive after init")
	}
	tape := autograd.NewTape()
	x := autograd.NewConst(tensor.Full(1, 3, 4))
	loss := tape.SoftmaxCrossEntropy(m.Forward(tape, x), []int{0, 1, 0})
	tape.Backward(loss)
	if GradNorm(m) <= 0 {
		t.Fatal("GradNorm after backward should be positive")
	}
	ZeroGrads(m)
	if GradNorm(m) != 0 {
		t.Fatal("GradNorm after ZeroGrads should be 0")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		5, 1, 1,
		1, 5, 1,
		1, 1, 5,
		5, 1, 1,
	}, 4, 3)
	if got := Accuracy(logits, []int{0, 1, 2, 0}); got != 1 {
		t.Fatalf("Accuracy = %g, want 1", got)
	}
	if got := Accuracy(logits, []int{1, 1, 2, 0}); got != 0.75 {
		t.Fatalf("Accuracy = %g, want 0.75", got)
	}
}

func TestNumParamsCounts(t *testing.T) {
	m := NewLinear("fc", xrand.New(1), 4, 3)
	if got := NumParams(m); got != 4*3+3 {
		t.Fatalf("NumParams = %d, want 15", got)
	}
}

// TestTrainingReducesLoss is an end-to-end check that the substrate can
// actually learn: a small MLP should fit a linearly separable problem.
func TestTrainingReducesLoss(t *testing.T) {
	rng := xrand.New(7)
	m := NewResidualMLP(rng, 4, 8, 8, 2, 2)
	x := tensor.New(20, 4)
	labels := make([]int, 20)
	dataRng := xrand.New(8)
	for i := 0; i < 20; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < 4; j++ {
			x.Set(dataRng.NormFloat64()+float64(cls*3), i, j)
		}
	}
	input := autograd.NewConst(x)
	var first, last float64
	for step := 0; step < 60; step++ {
		tape := autograd.NewTape()
		ZeroGrads(m)
		loss := tape.SoftmaxCrossEntropy(m.Forward(tape, input), labels)
		tape.Backward(loss)
		if step == 0 {
			first = loss.Value.Item()
		}
		last = loss.Value.Item()
		for _, p := range m.Params() {
			if p.Var.Grad != nil {
				tensor.AxpyInPlace(p.Var.Value, -0.1, p.Var.Grad)
			}
		}
	}
	if last >= first/2 {
		t.Fatalf("training did not reduce loss: first=%g last=%g", first, last)
	}
}
