// Package nn provides neural-network layers and the model architectures used
// by the paper's eight evaluation workloads (Table 3 analogues).
//
// Models are Modules: trees of named parameters built on the autograd
// substrate. Two properties matter for Flor:
//
//   - Parameters are enumerable in a deterministic order with stable names,
//     so checkpoints capture and restore exactly the model state.
//   - Parameters can be frozen (fine-tuning), which is what gives the RTE and
//     CoLA workloads their signature "enormous checkpoint, tiny epoch"
//     profile that exercises adaptive checkpointing (paper §5.3.4).
package nn

import (
	"fmt"
	"math"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/tensor"
)

// Param is a named trainable (or frozen) tensor.
type Param struct {
	Name string
	Var  *autograd.Var
}

// Module is anything exposing an ordered list of named parameters.
type Module interface {
	// Params returns the module's parameters in a deterministic order with
	// unique names. Callers range over the slice or append it to their own;
	// they never write to it.
	Params() []Param
}

// collect concatenates the parameters of ms, in order. Modules build their
// list once, in the constructor, because Params runs on every restore,
// optimizer step and weight norm.
func collect(ms ...Module) []Param {
	var out []Param
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// clip returns ps with its capacity cut to its length, so that a caller's
// append copies instead of writing past the end into a module's own list.
func clip(ps []Param) []Param { return ps[:len(ps):len(ps)] }

// NumParams returns the total element count across all parameters of m.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Var.Value.Len()
	}
	return n
}

// TrainableParams returns only the parameters that participate in gradients.
func TrainableParams(m Module) []Param {
	var out []Param
	for _, p := range m.Params() {
		if p.Var.RequiresGrad() {
			out = append(out, p)
		}
	}
	return out
}

// Freeze marks every parameter whose name has the given prefix as excluded
// from gradient computation. It returns the number of parameters frozen.
func Freeze(m Module, prefix string) int {
	n := 0
	for _, p := range m.Params() {
		if hasPrefix(p.Name, prefix) {
			p.Var.SetRequiresGrad(false)
			n++
		}
	}
	return n
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// ZeroGrads clears accumulated gradients on all parameters.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.Var.ZeroGrad()
	}
}

// GradNorm returns the L2 norm of the concatenated gradients of all
// trainable parameters; a standard training-health diagnostic and the value
// Alice probes in the paper's §2.1 scenario. It adds each gradient's
// SumSquares in parameter order and takes one square root.
func GradNorm(m Module) float64 {
	sum := 0.0
	for _, p := range m.Params() {
		if !p.Var.RequiresGrad() || p.Var.Grad == nil {
			continue
		}
		sum += p.Var.Grad.SumSquares()
	}
	return math.Sqrt(sum)
}

// WeightNorm returns the L2 norm of the concatenated parameter values, in
// the same one-pass order as GradNorm.
func WeightNorm(m Module) float64 {
	sum := 0.0
	for _, p := range m.Params() {
		sum += p.Var.Value.SumSquares()
	}
	return math.Sqrt(sum)
}

// CloneState deep-copies every parameter value of m into a name-keyed map;
// used by tests and by state snapshots.
func CloneState(m Module) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range m.Params() {
		out[p.Name] = p.Var.Value.Clone()
	}
	return out
}

// LoadState copies values from a name-keyed map into m's parameters. Every
// parameter of m must be present with a matching shape.
func LoadState(m Module, state map[string]*tensor.Tensor) error {
	for _, p := range m.Params() {
		src, ok := state[p.Name]
		if !ok {
			return fmt.Errorf("nn: LoadState missing parameter %q", p.Name)
		}
		if !tensor.SameShape(src, p.Var.Value) {
			return fmt.Errorf("nn: LoadState shape mismatch for %q: %v vs %v",
				p.Name, src.Shape(), p.Var.Value.Shape())
		}
		p.Var.Value.CopyFrom(src)
	}
	return nil
}

// StatesEqual reports whether two modules have identical parameter values.
func StatesEqual(a, b Module) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name || !tensor.Equal(pa[i].Var.Value, pb[i].Var.Value) {
			return false
		}
	}
	return true
}
