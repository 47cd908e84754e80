// Package bench implements the paper's evaluation harness: one experiment
// per table and figure of §6 (plus the §5 microbenchmarks), over the eight
// Table 3 workloads. cmd/florbench and the root package's Benchmark*
// functions both drive this package. The repository's own two end-to-end
// numbers (record overhead, hindsight-query latency) are measured elsewhere,
// by cmd/florperf.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"flor.dev/flor/internal/cluster"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/workloads"
)

// WorkloadRun caches everything the experiments need about one workload:
// the vanilla baseline, the record run, and derived per-iteration costs.
type WorkloadRun struct {
	Spec    *workloads.Spec
	Factory func() *script.Program
	Dir     string

	VanillaNs   int64
	VanillaLogs []string
	Record      *core.RecordResult

	// Derived measurements.
	EpochComputNs []int64 // per-epoch train-loop compute (gaps filled with mean)
	EvalNs        int64   // per-epoch non-train cost (eval + logging)
	MeanRestoreNs int64
	SetupNs       int64
}

// Epochs returns the workload's main-loop iteration count for this run.
func (wr *WorkloadRun) Epochs() int { return len(wr.EpochComputNs) }

// IterationCosts converts the measurements into the cluster simulator's
// input: per-iteration compute = train compute + eval cost. The restore cost
// of an iteration is the measured mean checkpoint restore when its Loop End
// Checkpoint was materialized, and the full compute cost otherwise (sparse
// workloads re-execute unmaterialized epochs); the eval always re-executes.
func (wr *WorkloadRun) IterationCosts() *cluster.IterationCosts {
	c := &cluster.IterationCosts{SetupNs: wr.SetupNs}
	for i, e := range wr.EpochComputNs {
		c.ComputNs = append(c.ComputNs, e+wr.EvalNs)
		if wr.Record.Recording.Store.Has(store.Key{LoopID: "train", Exec: i}) {
			c.RestoreNs = append(c.RestoreNs, wr.MeanRestoreNs+wr.EvalNs)
		} else {
			c.RestoreNs = append(c.RestoreNs, e+wr.EvalNs)
		}
	}
	return c
}

// Session runs experiments, caching workload runs so that one florbench
// invocation records each workload once.
type Session struct {
	Scale   workloads.Scale
	BaseDir string
	Out     io.Writer

	runs map[string]*WorkloadRun
}

// NewSession creates a session writing experiment tables to out; baseDir
// holds the run directories.
func NewSession(baseDir string, scale workloads.Scale, out io.Writer) *Session {
	return &Session{Scale: scale, BaseDir: baseDir, Out: out, runs: map[string]*WorkloadRun{}}
}

// Experiment is one named experiment of the harness.
type Experiment struct {
	Name string
	Run  func(*Session) error
}

// Experiments is every experiment florbench accepts after -exp, in the
// order "-exp all" runs them. It is the one list of accepted names:
// cmd/florbench validates against it, and the root docs test checks that
// the documentation names nothing else.
var Experiments = []Experiment{
	{"table3", func(s *Session) error { s.Table3(); return nil }},
	{"fig5", func(s *Session) error { _, err := s.Fig5(10); return err }},
	{"fig7", func(s *Session) error { _, err := s.Fig7(); return err }},
	{"fig11", func(s *Session) error { _, err := s.Fig11(); return err }},
	{"table4", func(s *Session) error { _, err := s.Table4(); return err }},
	{"fig12", func(s *Session) error { _, err := s.Fig12(); return err }},
	{"fig10", func(s *Session) error { _, err := s.Fig10(); return err }},
	{"fig13", func(s *Session) error { _, err := s.Fig13(); return err }},
	{"fig14", func(s *Session) error { _, err := s.Fig14(); return err }},
	{"ser-vs-io", func(s *Session) error {
		_, err := s.SerVsIO([]string{"Wiki", "RsNt", "RnnT", "Jasp"})
		return err
	}},
	{"cfactor", func(s *Session) error { _, err := s.CFactor(); return err }},
}

func (s *Session) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// Trials is the number of measurements per timing; the median is reported.
// The host shares two cores between training and background
// materialization, so single runs carry ±10% scheduling noise — far larger
// than the overheads under measurement.
var Trials = 3

// median3 returns the median of up to Trials measurements of f's duration.
func medianTrials(f func() (int64, error)) (int64, error) {
	var times []int64
	for i := 0; i < Trials; i++ {
		ns, err := f()
		if err != nil {
			return 0, err
		}
		times = append(times, ns)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// Run measures one workload (vanilla + record, median of Trials runs each)
// or returns the cached run.
func (s *Session) Run(name string) (*WorkloadRun, error) {
	if wr, ok := s.runs[name]; ok {
		return wr, nil
	}
	spec, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	factory := spec.Build(s.Scale)
	wr := &WorkloadRun{Spec: spec, Factory: factory, Dir: filepath.Join(s.BaseDir, name)}

	vanillaNs, err := medianTrials(func() (int64, error) {
		logs, ns, err := core.Vanilla(factory)
		wr.VanillaLogs = logs
		return ns, err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s vanilla: %w", name, err)
	}
	wr.VanillaNs = vanillaNs

	trial := 0
	recordNs, err := medianTrials(func() (int64, error) {
		trial++
		dir := wr.Dir
		if trial < Trials {
			dir = fmt.Sprintf("%s-trial%d", wr.Dir, trial)
		}
		res, err := core.Record(dir, factory, core.RecordOptions{})
		if err != nil {
			return 0, err
		}
		if dir == wr.Dir {
			wr.Record = res
		} else {
			os.RemoveAll(dir)
		}
		return res.WallNs, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s record: %w", name, err)
	}
	wr.Record.WallNs = recordNs

	if err := s.derive(wr); err != nil {
		return nil, err
	}
	s.runs[name] = wr
	return wr, nil
}

// derive computes per-epoch costs from the record store and a sequential
// unprobed replay (which measures setup and restore costs directly).
func (s *Session) derive(wr *WorkloadRun) error {
	epochs := wr.Spec.Epochs(s.Scale)
	perEpoch := make([]int64, epochs)
	var sum, n int64
	for _, m := range wr.Record.Recording.Store.Metas() {
		if m.Key.LoopID == "train" && m.Key.Exec < epochs && m.ComputNs > 0 {
			perEpoch[m.Key.Exec] = m.ComputNs
			sum += m.ComputNs
			n++
		}
	}
	var mean int64
	if n > 0 {
		mean = sum / n
	}
	total := int64(0)
	for i := range perEpoch {
		if perEpoch[i] == 0 {
			perEpoch[i] = mean
		}
		total += perEpoch[i]
	}
	wr.EpochComputNs = perEpoch
	// Eval/log cost per epoch: the vanilla wall time not explained by the
	// train loops, spread across epochs.
	if rem := wr.VanillaNs - total; rem > 0 && epochs > 0 {
		wr.EvalNs = rem / int64(epochs)
	}

	// One unprobed sequential replay measures setup and restore costs.
	res, err := replay.Replay(wr.Record.Recording, wr.Factory, replay.Options{Workers: 1, SkipDeferredCheck: true})
	if err != nil {
		return fmt.Errorf("bench: %s probe-free replay: %w", wr.Spec.Name, err)
	}
	w := res.Workers[0]
	wr.SetupNs = w.SetupNs
	if w.Restored > 0 {
		wr.MeanRestoreNs = w.RestoreNs / int64(w.Restored)
	}
	return nil
}

// RunAll measures every Table 3 workload.
func (s *Session) RunAll() ([]*WorkloadRun, error) {
	var out []*WorkloadRun
	for _, name := range workloads.Names() {
		wr, err := s.Run(name)
		if err != nil {
			return nil, err
		}
		out = append(out, wr)
	}
	return out, nil
}
