package nn

import (
	"math"
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// paramList is a Module over a fixed parameter list.
type paramList []Param

func (l paramList) Params() []Param { return l }

func param(name string, vals ...float64) Param {
	return Param{Name: name, Var: autograd.NewParam(tensor.FromSlice(vals, len(vals)))}
}

// TestWeightNormKnownValues pins the norms to their definition: parameters
// {3, 4} have norm 5 whether they are one tensor or two, and so do their
// gradients; a frozen parameter's gradient is left out.
func TestWeightNormKnownValues(t *testing.T) {
	one := paramList{param("w", 3, 4)}
	two := paramList{param("a", 3), param("b", 4)}
	for _, m := range []paramList{one, two} {
		if got := WeightNorm(m); got != 5 {
			t.Fatalf("WeightNorm over %d parameters of {3, 4} = %v, want 5", len(m), got)
		}
		for _, p := range m {
			p.Var.Grad = p.Var.Value.Clone()
		}
		if got := GradNorm(m); got != 5 {
			t.Fatalf("GradNorm over %d parameters of {3, 4} = %v, want 5", len(m), got)
		}
	}
	frozen := param("f", 12)
	frozen.Var.Grad = frozen.Var.Value.Clone()
	frozen.Var.SetRequiresGrad(false)
	if got := GradNorm(append(two, frozen)); got != 5 {
		t.Fatalf("GradNorm with a frozen parameter = %v, want 5", got)
	}
	if got := WeightNorm(append(two, frozen)); got != 13 {
		t.Fatalf("WeightNorm of {3, 4, 12} = %v, want 13", got)
	}
}

// TestWeightNormIsOnePassOverParameters checks a random model's weight and
// gradient norms against √Σv² over every element, and pins the one-pass
// order: one square root over the parameters' SumSquares, added in
// parameter order.
func TestWeightNormIsOnePassOverParameters(t *testing.T) {
	m := NewResidualMLP(xrand.New(3), 32, 64, 64, 8, 10)
	tape := autograd.NewTape()
	x := autograd.NewConst(tensor.Randn(xrand.New(4), 1, 5, 32))
	tape.Backward(tape.SoftmaxCrossEntropy(m.Forward(tape, x), []int{0, 1, 2, 3, 4}))

	for _, c := range []struct {
		name string
		norm func(Module) float64
		of   func(Param) *tensor.Tensor
	}{
		{"WeightNorm", WeightNorm, func(p Param) *tensor.Tensor { return p.Var.Value }},
		{"GradNorm", GradNorm, func(p Param) *tensor.Tensor { return p.Var.Grad }},
	} {
		naive, onePass := 0.0, 0.0
		for _, p := range m.Params() {
			for _, v := range c.of(p).Data() {
				naive += v * v
			}
			onePass += c.of(p).SumSquares()
		}
		got := c.norm(m)
		if got == 0 || math.Abs(got-math.Sqrt(naive)) > 1e-12*got {
			t.Fatalf("%s = %v, √Σv² = %v", c.name, got, math.Sqrt(naive))
		}
		if math.Float64bits(got) != math.Float64bits(math.Sqrt(onePass)) {
			t.Fatalf("%s = %v, one square root over Σ SumSquares = %v", c.name, got, math.Sqrt(onePass))
		}
	}
}

// BenchmarkWeightNorm measures WeightNorm over one query model (the
// residual MLP florperf's query runs record) and over 72 of them (the
// payload working set of a warm daemon's weight-norm queries).
func BenchmarkWeightNorm(b *testing.B) {
	for _, c := range []struct {
		name   string
		models int
	}{{"model", 1}, {"72models", 72}} {
		ms := make([]Module, c.models)
		bytes := 0
		for i := range ms {
			ms[i] = NewResidualMLP(xrand.New(uint64(i)+1), 32, 64, 64, 8, 10)
			bytes += 8 * NumParams(ms[i])
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for b.Loop() {
				for _, m := range ms {
					WeightNorm(m)
				}
			}
		})
	}
}
