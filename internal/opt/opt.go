// Package opt implements optimizers and learning-rate schedulers for the
// training substrate.
//
// Two properties matter to Flor (paper §5.2.1): the optimizer is the object
// through which the model is mutated, and the scheduler is the object through
// which the optimizer is mutated. Both expose that reference graph
// explicitly (Model(), Optimizer()) so the changeset augmentation step can
// discover side-effects the static rules miss. Optimizer state (momentum
// buffers, Adam moments, step counters) is fully serializable because a
// checkpoint that omitted it would replay divergently.
package opt

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/tensor"
)

// State is a serializable snapshot of model, optimizer or scheduler state:
// named tensors plus named scalars. A tensor entry is a codec.Dense:
// materialized when Snapshot built the state, a view over checkpoint bytes
// when a decoder did. Restore copies entries into the live object's own
// tensors and keeps no reference to the state.
type State struct {
	Scalars map[string]float64
	Tensors map[string]codec.Dense
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Scalars: map[string]float64{}, Tensors: map[string]codec.Dense{}}
}

// Clone deep-copies the state into materialized tensors.
func (s *State) Clone() *State {
	c := NewState()
	for k, v := range s.Scalars {
		c.Scalars[k] = v
	}
	for k, v := range s.Tensors {
		c.Tensors[k] = codec.Dense{T: v.Tensor().Clone()}
	}
	return c
}

// Equal reports deep equality of two states.
func (s *State) Equal(o *State) bool {
	if len(s.Scalars) != len(o.Scalars) || len(s.Tensors) != len(o.Tensors) {
		return false
	}
	for k, v := range s.Scalars {
		if ov, ok := o.Scalars[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range s.Tensors {
		ov, ok := o.Tensors[k]
		if !ok || !tensor.Equal(v.Tensor(), ov.Tensor()) {
			return false
		}
	}
	return true
}

// SizeBytes estimates the serialized size of the state.
func (s *State) SizeBytes() int {
	n := 0
	for k := range s.Scalars {
		n += scalarSize(k)
	}
	for k, v := range s.Tensors {
		n += len(k) + 8*v.Len()
	}
	return n
}

// scalarSize is what one named scalar adds to State.SizeBytes.
func scalarSize(name string) int { return len(name) + 8 }

// momentsSize is what the live moment tensors in m, snapshotted under
// prefix+name, add to State.SizeBytes — counted in place, without the deep
// copy Snapshot makes.
func momentsSize(prefix string, m map[string]*tensor.Tensor) int {
	n := 0
	for k, v := range m {
		n += len(prefix) + len(k) + 8*v.Len()
	}
	return n
}

// loadMoments makes the live moment tensors in dst equal to the snapshot
// entries named prefix+name: an existing tensor of the right shape is
// overwritten in place, one seen for the first time or with a changed shape
// is allocated, and one the snapshot lacks is deleted. dst never aliases src,
// so the snapshot stays intact whatever Step does next.
func loadMoments(dst map[string]*tensor.Tensor, prefix string, src map[string]codec.Dense) {
	kept := 0
	for name, d := range src {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		kept++
		k := name[len(prefix):]
		t, ok := dst[k]
		if !ok || !slices.Equal(t.Shape(), d.Shape()) {
			t = tensor.New(d.Shape()...)
			dst[k] = t
		}
		if err := d.CopyInto(t); err != nil {
			panic(err) // unreachable: t has d's shape
		}
	}
	if len(dst) == kept {
		return
	}
	for k := range dst {
		if _, ok := src[prefix+k]; !ok {
			delete(dst, k)
		}
	}
}

// Optimizer updates a model's trainable parameters from their gradients.
type Optimizer interface {
	// Step applies one update using the gradients currently accumulated on
	// the model's parameters.
	Step()
	// Model returns the module this optimizer mutates (used by Flor's
	// changeset augmentation).
	Model() nn.Module
	// LR returns the current learning rate.
	LR() float64
	// SetLR overrides the learning rate (called by schedulers).
	SetLR(lr float64)
	// Live returns all mutable optimizer state with every tensor entry
	// borrowing the optimizer's own moment tensor, uncopied: the state reads
	// as a snapshot only until the next Step or Restore, and must be neither
	// mutated nor kept. Materialization encodes from it — the encode is the
	// checkpoint's one copy.
	Live() *State
	// Snapshot captures all mutable optimizer state: Live().Clone().
	Snapshot() *State
	// Restore applies a snapshot captured from an identically configured
	// optimizer. It overwrites the optimizer's own tensors and retains
	// nothing of the state, which may be shared with other restores.
	Restore(*State) error
	// SizeBytes returns Snapshot().SizeBytes() without taking the snapshot.
	SizeBytes() int
}

// SGD is stochastic gradient descent with momentum and decoupled weight
// decay.
type SGD struct {
	model       nn.Module
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    map[string]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over model's trainable parameters.
func NewSGD(model nn.Module, lr, momentum, weightDecay float64) *SGD {
	return &SGD{
		model:       model,
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    map[string]*tensor.Tensor{},
	}
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for _, p := range s.model.Params() {
		if !p.Var.RequiresGrad() || p.Var.Grad == nil {
			continue
		}
		g := p.Var.Grad
		if s.weightDecay != 0 {
			// Decoupled weight decay: w -= lr * wd * w.
			tensor.AxpyInPlace(p.Var.Value, -s.lr*s.weightDecay, p.Var.Value)
		}
		if s.momentum != 0 {
			v, ok := s.velocity[p.Name]
			if !ok {
				v = tensor.New(p.Var.Value.Shape()...)
				s.velocity[p.Name] = v
			}
			tensor.ScaleInPlace(v, s.momentum)
			tensor.AddInPlace(v, g)
			g = v
		}
		tensor.AxpyInPlace(p.Var.Value, -s.lr, g)
	}
}

// Model implements Optimizer.
func (s *SGD) Model() nn.Module { return s.model }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Live implements Optimizer.
func (s *SGD) Live() *State {
	st := NewState()
	st.Scalars["lr"] = s.lr
	for k, v := range s.velocity {
		st.Tensors["vel."+k] = codec.Dense{T: v}
	}
	return st
}

// Snapshot implements Optimizer.
func (s *SGD) Snapshot() *State { return s.Live().Clone() }

// SizeBytes implements Optimizer.
func (s *SGD) SizeBytes() int { return scalarSize("lr") + momentsSize("vel.", s.velocity) }

// Restore implements Optimizer.
func (s *SGD) Restore(st *State) error {
	lr, ok := st.Scalars["lr"]
	if !ok {
		return fmt.Errorf("opt: SGD restore: missing lr")
	}
	for k := range st.Tensors {
		if len(k) < 5 || k[:4] != "vel." {
			return fmt.Errorf("opt: SGD restore: unexpected tensor %q", k)
		}
	}
	s.lr = lr
	loadMoments(s.velocity, "vel.", st.Tensors)
	return nil
}

// AdamW is the Adam optimizer with decoupled weight decay.
type AdamW struct {
	model       nn.Module
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64
	step        int
	m           map[string]*tensor.Tensor
	v           map[string]*tensor.Tensor
}

// NewAdamW constructs an AdamW optimizer with standard betas (0.9, 0.999).
func NewAdamW(model nn.Module, lr, weightDecay float64) *AdamW {
	return &AdamW{
		model:       model,
		lr:          lr,
		beta1:       0.9,
		beta2:       0.999,
		eps:         1e-8,
		weightDecay: weightDecay,
		m:           map[string]*tensor.Tensor{},
		v:           map[string]*tensor.Tensor{},
	}
}

// Step implements Optimizer.
func (a *AdamW) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for _, p := range a.model.Params() {
		if !p.Var.RequiresGrad() || p.Var.Grad == nil {
			continue
		}
		g := p.Var.Grad
		m, ok := a.m[p.Name]
		if !ok {
			m = tensor.New(p.Var.Value.Shape()...)
			a.m[p.Name] = m
			a.v[p.Name] = tensor.New(p.Var.Value.Shape()...)
		}
		v := a.v[p.Name]
		md, vd, gd, wd := m.Data(), v.Data(), g.Data(), p.Var.Value.Data()
		for i := range gd {
			md[i] = a.beta1*md[i] + (1-a.beta1)*gd[i]
			vd[i] = a.beta2*vd[i] + (1-a.beta2)*gd[i]*gd[i]
			mHat := md[i] / bc1
			vHat := vd[i] / bc2
			wd[i] -= a.lr * (mHat/(math.Sqrt(vHat)+a.eps) + a.weightDecay*wd[i])
		}
	}
}

// Model implements Optimizer.
func (a *AdamW) Model() nn.Module { return a.model }

// LR implements Optimizer.
func (a *AdamW) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *AdamW) SetLR(lr float64) { a.lr = lr }

// Live implements Optimizer.
func (a *AdamW) Live() *State {
	st := NewState()
	st.Scalars["lr"] = a.lr
	st.Scalars["step"] = float64(a.step)
	for k, v := range a.m {
		st.Tensors["m."+k] = codec.Dense{T: v}
	}
	for k, v := range a.v {
		st.Tensors["v."+k] = codec.Dense{T: v}
	}
	return st
}

// Snapshot implements Optimizer.
func (a *AdamW) Snapshot() *State { return a.Live().Clone() }

// SizeBytes implements Optimizer.
func (a *AdamW) SizeBytes() int {
	return scalarSize("lr") + scalarSize("step") + momentsSize("m.", a.m) + momentsSize("v.", a.v)
}

// Restore implements Optimizer.
func (a *AdamW) Restore(st *State) error {
	lr, ok := st.Scalars["lr"]
	if !ok {
		return fmt.Errorf("opt: AdamW restore: missing lr")
	}
	stepF, ok := st.Scalars["step"]
	if !ok {
		return fmt.Errorf("opt: AdamW restore: missing step")
	}
	for k := range st.Tensors {
		if len(k) < 3 || (k[:2] != "m." && k[:2] != "v.") {
			return fmt.Errorf("opt: AdamW restore: unexpected tensor %q", k)
		}
	}
	a.lr = lr
	a.step = int(stepF)
	loadMoments(a.m, "m.", st.Tensors)
	loadMoments(a.v, "v.", st.Tensors)
	return nil
}

// Scheduler adjusts an optimizer's learning rate once per epoch.
type Scheduler interface {
	// Step advances the schedule by one epoch.
	Step()
	// Optimizer returns the optimizer this scheduler mutates (used by Flor's
	// changeset augmentation).
	Optimizer() Optimizer
	// Snapshot captures scheduler state.
	Snapshot() *State
	// Restore applies a snapshot.
	Restore(*State) error
	// SizeBytes returns Snapshot().SizeBytes() without taking the snapshot.
	SizeBytes() int
}

// StepLR multiplies the learning rate by gamma every stepSize epochs.
type StepLR struct {
	opt      Optimizer
	gamma    float64
	stepSize int
	epoch    int
}

// NewStepLR constructs a step decay schedule.
func NewStepLR(o Optimizer, stepSize int, gamma float64) *StepLR {
	return &StepLR{opt: o, gamma: gamma, stepSize: stepSize}
}

// Step implements Scheduler.
func (s *StepLR) Step() {
	s.epoch++
	if s.stepSize > 0 && s.epoch%s.stepSize == 0 {
		s.opt.SetLR(s.opt.LR() * s.gamma)
	}
}

// Optimizer implements Scheduler.
func (s *StepLR) Optimizer() Optimizer { return s.opt }

// Snapshot implements Scheduler.
func (s *StepLR) Snapshot() *State {
	st := NewState()
	st.Scalars["epoch"] = float64(s.epoch)
	return st
}

// SizeBytes implements Scheduler.
func (s *StepLR) SizeBytes() int { return scalarSize("epoch") }

// Restore implements Scheduler.
func (s *StepLR) Restore(st *State) error {
	e, ok := st.Scalars["epoch"]
	if !ok {
		return fmt.Errorf("opt: StepLR restore: missing epoch")
	}
	s.epoch = int(e)
	return nil
}

// CosineLR anneals the learning rate from its base value to zero over tMax
// epochs following a half cosine.
type CosineLR struct {
	opt    Optimizer
	baseLR float64
	tMax   int
	epoch  int
}

// NewCosineLR constructs a cosine annealing schedule over tMax epochs.
func NewCosineLR(o Optimizer, tMax int) *CosineLR {
	return &CosineLR{opt: o, baseLR: o.LR(), tMax: tMax}
}

// Step implements Scheduler.
func (s *CosineLR) Step() {
	s.epoch++
	frac := float64(s.epoch) / float64(s.tMax)
	if frac > 1 {
		frac = 1
	}
	s.opt.SetLR(s.baseLR * 0.5 * (1 + math.Cos(math.Pi*frac)))
}

// Optimizer implements Scheduler.
func (s *CosineLR) Optimizer() Optimizer { return s.opt }

// Snapshot implements Scheduler.
func (s *CosineLR) Snapshot() *State {
	st := NewState()
	st.Scalars["epoch"] = float64(s.epoch)
	st.Scalars["baseLR"] = s.baseLR
	return st
}

// SizeBytes implements Scheduler.
func (s *CosineLR) SizeBytes() int { return scalarSize("epoch") + scalarSize("baseLR") }

// Restore implements Scheduler.
func (s *CosineLR) Restore(st *State) error {
	e, ok := st.Scalars["epoch"]
	if !ok {
		return fmt.Errorf("opt: CosineLR restore: missing epoch")
	}
	base, ok := st.Scalars["baseLR"]
	if !ok {
		return fmt.Errorf("opt: CosineLR restore: missing baseLR")
	}
	s.epoch = int(e)
	s.baseLR = base
	return nil
}
