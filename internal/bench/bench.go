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

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/workloads"
)

// WorkloadRun caches everything the experiments need about one workload:
// the vanilla baseline, the record run, replay's plans for it, and the c its
// replay measured.
type WorkloadRun struct {
	Spec    *workloads.Spec
	Factory func() *script.Program
	Dir     string

	VanillaNs   int64
	VanillaLogs []string
	Record      *core.RecordResult

	// Inner and Outer are what replay.Plan returns for the program under
	// the inner probe (every iteration re-executes) and the outer probe
	// (nested loops restore): the prices a replay schedules with, from the
	// recording's timings and checkpoint metadata. Anchors are the
	// recording's anchored iterations.
	Inner, Outer *sched.Costs
	Anchors      []int
	// CFactor is the restore/materialize factor c after one probe-free
	// replay of the recording: the replay tracker's, refined by the
	// restores the replay measured (replay.Result.CFactor).
	CFactor float64
}

// sequentialNs is the virtual time of one worker re-executing a run: setup
// plus every iteration's work under the inner probe's plan, where every
// iteration re-executes.
func sequentialNs(inner *sched.Costs) int64 {
	return inner.SetupNs + inner.WorkCostNs(0, inner.N())
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

// derive takes replay's plans for the recording, then runs one probe-free
// sequential replay of it and keeps the c its tracker ends with.
func (s *Session) derive(wr *WorkloadRun) error {
	rec, name := wr.Record.Recording, wr.Spec.Name
	var err error
	if wr.Inner, wr.Anchors, err = replay.Plan(rec, workloads.WithInnerProbe(wr.Factory)); err != nil {
		return fmt.Errorf("bench: %s inner-probe plan: %w", name, err)
	}
	if wr.Outer, _, err = replay.Plan(rec, workloads.WithOuterProbe(wr.Factory)); err != nil {
		return fmt.Errorf("bench: %s outer-probe plan: %w", name, err)
	}
	res, err := replay.Replay(rec, wr.Factory, replay.Options{Workers: 1, SkipDeferredCheck: true})
	if err != nil {
		return fmt.Errorf("bench: %s probe-free replay: %w", name, err)
	}
	wr.CFactor = res.CFactor
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
