// Package workloads defines the eight evaluation workloads of the paper's
// Table 3 as Flor training programs.
//
//	Name  Benchmark   Task                       Model          Mode       Epochs
//	RTE   GLUE        Textual entailment         RoBERTa        Fine-Tune  200
//	CoLA  GLUE        Language acceptability     RoBERTa        Fine-Tune  80
//	Cifr  Classic CV  Image classification       Squeezenet     Train      200
//	RsNt  Classic CV  Image classification       ResNet-152     Train      200
//	Wiki  GLUE        Language modeling          RoBERTa        Train      12
//	Jasp  MLPerf      Speech recognition         Jasper         Train      4
//	ImgN  Classic CV  Image classification       Squeezenet     Train      8
//	RnnT  MLPerf      Language translation       RNN+Attention  Train      8
//
// Models are laptop-scale analogues (docs/ARCHITECTURE.md, "Concept →
// package", names the DL stack under them): epoch counts match the paper
// exactly; per-epoch compute and checkpoint size are scaled together so each
// workload keeps its materialization-to-computation profile. The fine-tuning workloads freeze their transformer backbone, so
// their checkpoints are enormous relative to their epochs — the trigger for
// adaptive checkpointing's sparse mode (paper §5.3.4, Figure 7).
package workloads

import (
	"fmt"
	"sort"

	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/value"
)

// Scale selects workload sizing.
type Scale int

// Smoke shrinks epoch counts for fast tests; Full uses the paper's Table 3
// epoch counts with scaled per-epoch compute.
const (
	Smoke Scale = iota
	Full
)

// Spec describes one Table 3 workload.
type Spec struct {
	Name      string
	Benchmark string
	Task      string
	Model     string
	Dataset   string
	Mode      string // "Train" or "Fine-Tune"
	// PaperEpochs is Table 3's epoch count (used at Full scale).
	PaperEpochs int
	// SmokeEpochs is the epoch count used at Smoke scale (tests).
	SmokeEpochs int
	// Build returns a program factory at the given scale. Every call to the
	// factory yields a fresh, independent program instance.
	Build func(sc Scale) func() *script.Program
}

// ParseScale returns the scale a command line names: "smoke" or "full".
// Any other value is an error that lists both.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "smoke":
		return Smoke, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q; accepted: smoke, full", name)
}

// Epochs returns the main-loop iteration count at the given scale.
func (s *Spec) Epochs(sc Scale) int {
	if sc == Smoke {
		return s.SmokeEpochs
	}
	return s.PaperEpochs
}

var registry = map[string]*Spec{}
var registryOrder []string

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate spec %q", s.Name))
	}
	registry[s.Name] = s
	registryOrder = append(registryOrder, s.Name)
}

// Get returns the workload spec by Table 3 name.
func Get(name string) (*Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// All returns every workload in Table 3 order.
func All() []*Spec {
	out := make([]*Spec, 0, len(registryOrder))
	for _, n := range registryOrder {
		out = append(out, registry[n])
	}
	return out
}

// Names returns the workload names in Table 3 order.
func Names() []string {
	return append([]string(nil), registryOrder...)
}

// SortedNames returns workload names alphabetically (for deterministic maps
// in reports).
func SortedNames() []string {
	out := Names()
	sort.Strings(out)
	return out
}

// ---------- probe helpers ----------

// WithOuterProbe inserts a hindsight log statement into the main loop body
// (after the training loop): the weight-norm probe of the paper's §2.1
// scenario. Partial replay can satisfy it by skipping the training loop.
func WithOuterProbe(factory func() *script.Program) func() *script.Program {
	return func() *script.Program {
		p := factory()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt("hindsight_weight_norm",
			func(e *script.Env) (string, error) {
				mv, ok := e.Get("net")
				if !ok {
					return "", fmt.Errorf("no net in environment")
				}
				m := mv.(*value.Model).M
				return fmt.Sprintf("epoch=%d norm=%.6g", e.Int("epoch"), weightNorm(m)), nil
			}))
		return p
	}
}

// WithInnerProbe inserts a hindsight log statement into the nested training
// loop: the gradient-magnitude probe of §2.1. The training loop must
// re-execute on replay to produce it.
func WithInnerProbe(factory func() *script.Program) func() *script.Program {
	return func() *script.Program {
		p := factory()
		train := findTrainLoop(p)
		train.Body = script.AddLog(train.Body, len(train.Body), script.LogStmt("hindsight_grad_norm",
			func(e *script.Env) (string, error) {
				mv, ok := e.Get("net")
				if !ok {
					return "", fmt.Errorf("no net in environment")
				}
				m := mv.(*value.Model).M
				return fmt.Sprintf("epoch=%d step=%d grad=%.6g", e.Int("epoch"), e.Int("step"), gradNorm(m)), nil
			}))
		return p
	}
}

func findTrainLoop(p *script.Program) *script.Loop {
	for i := range p.Main.Body {
		if l := p.Main.Body[i].Loop; l != nil {
			return l
		}
	}
	panic("workloads: program has no nested training loop")
}
