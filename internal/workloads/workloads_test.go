package workloads_test

import (
	"fmt"
	"strings"
	"testing"

	"flor.dev/flor/internal/analyze"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/workloads"
)

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		want workloads.Scale
		ok   bool
	}{
		{"smoke", workloads.Smoke, true},
		{"full", workloads.Full, true},
		{"Smoke", 0, false},
		{"FULL", 0, false},
		{" smoke", 0, false},
		{"", 0, false},
		{"paper", 0, false},
	} {
		got, err := workloads.ParseScale(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
		if err != nil && (!strings.Contains(err.Error(), "smoke") || !strings.Contains(err.Error(), "full")) {
			t.Errorf("ParseScale(%q) error %q does not name the accepted scales", tc.name, err)
		}
	}
}

func TestRegistryMatchesTable3(t *testing.T) {
	want := []struct {
		name, bench, model, dataset, mode string
		epochs                            int
	}{
		{"RTE", "GLUE", "RoBERTa", "RTE", "Fine-Tune", 200},
		{"CoLA", "GLUE", "RoBERTa", "CoLA", "Fine-Tune", 80},
		{"Cifr", "Classic CV", "Squeezenet", "Cifar100", "Train", 200},
		{"RsNt", "Classic CV", "ResNet-152", "Cifar100", "Train", 200},
		{"Wiki", "GLUE", "RoBERTa", "Wiki", "Train", 12},
		{"Jasp", "MLPerf", "Jasper", "LibriSpeech", "Train", 4},
		{"ImgN", "Classic CV", "Squeezenet", "ImageNet", "Train", 8},
		{"RnnT", "MLPerf", "RNN w/ Attention", "WMT16", "Train", 8},
	}
	all := workloads.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d workloads, want %d", len(all), len(want))
	}
	for i, w := range want {
		s := all[i]
		if s.Name != w.name || s.Benchmark != w.bench || s.Model != w.model ||
			s.Dataset != w.dataset || s.Mode != w.mode || s.PaperEpochs != w.epochs {
			t.Fatalf("workload %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestGetAndNames(t *testing.T) {
	if _, ok := workloads.Get("RsNt"); !ok {
		t.Fatal("Get(RsNt) failed")
	}
	if _, ok := workloads.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	if len(workloads.Names()) != 8 || len(workloads.SortedNames()) != 8 {
		t.Fatal("name listings wrong")
	}
}

func TestSmokeEpochsCapped(t *testing.T) {
	for _, s := range workloads.All() {
		smoke := s.Epochs(workloads.Smoke)
		if smoke > 6 {
			t.Fatalf("%s smoke epochs = %d", s.Name, smoke)
		}
		if s.Epochs(workloads.Full) != s.PaperEpochs {
			t.Fatalf("%s full epochs = %d, want paper %d", s.Name, s.Epochs(workloads.Full), s.PaperEpochs)
		}
	}
}

func TestEveryWorkloadRunsVanilla(t *testing.T) {
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			factory := s.Build(workloads.Smoke)
			logs, wall, err := core.Vanilla(factory)
			if err != nil {
				t.Fatal(err)
			}
			if wall <= 0 {
				t.Fatal("no wall time")
			}
			wantLines := s.Epochs(workloads.Smoke) + 1 // metrics per epoch + final
			if len(logs) != wantLines {
				t.Fatalf("logs = %d lines, want %d:\n%s", len(logs), wantLines, strings.Join(logs, "\n"))
			}
		})
	}
}

func TestEveryWorkloadLearns(t *testing.T) {
	// The training substrate must actually learn on each synthetic task: the
	// training loss at the last epoch is below the first epoch's. This
	// guards against degenerate workloads whose replay behaviour would be
	// trivially cheap.
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			logs, _, err := core.Vanilla(s.Build(workloads.Smoke))
			if err != nil {
				t.Fatal(err)
			}
			parseLoss := func(line string) float64 {
				var epoch int
				var loss, acc float64
				if _, err := fmt.Sscanf(line, "metrics: epoch=%d loss=%g acc=%g", &epoch, &loss, &acc); err != nil {
					t.Fatalf("cannot parse %q: %v", line, err)
				}
				return loss
			}
			first := parseLoss(logs[0])
			last := parseLoss(logs[len(logs)-2]) // line before "final:"
			if last >= first {
				t.Fatalf("%s loss did not decrease: %g -> %g", s.Name, first, last)
			}
		})
	}
}

func TestTrainLoopIsMemoizable(t *testing.T) {
	// Every workload's training loop must pass the side-effect analysis and
	// carry the model (directly or via augmentation).
	for _, s := range workloads.All() {
		p := s.Build(workloads.Smoke)()
		train, ok := p.FindLoop("train")
		if !ok {
			t.Fatalf("%s has no train loop", s.Name)
		}
		a := analyze.AnalyzeLoop(p, train)
		if !a.Memoizable {
			t.Fatalf("%s train loop refused: %s", s.Name, a.Refusal)
		}
		set := map[string]bool{}
		for _, n := range a.Changeset {
			set[n] = true
		}
		if !set["optimizer"] {
			t.Fatalf("%s changeset %v missing optimizer", s.Name, a.Changeset)
		}
		if !set["avg_loss"] {
			t.Fatalf("%s changeset %v missing avg_loss (read after loop)", s.Name, a.Changeset)
		}
	}
}

func TestRuleTwoWorkloadsNeedAugmentationForNet(t *testing.T) {
	// The CV and speech workloads use the Figure 6 pattern: net is NOT in
	// the static changeset and must come from augmentation.
	for _, name := range []string{"Cifr", "RsNt", "ImgN", "Jasp"} {
		s, _ := workloads.Get(name)
		p := s.Build(workloads.Smoke)()
		train, _ := p.FindLoop("train")
		a := analyze.AnalyzeLoop(p, train)
		for _, n := range a.Changeset {
			if n == "net" {
				t.Fatalf("%s: net in static changeset %v; should only arrive via augmentation", name, a.Changeset)
			}
		}
	}
	// The NLP workloads use rule 1: net is the receiver and appears
	// statically.
	for _, name := range []string{"RTE", "CoLA", "Wiki", "RnnT"} {
		s, _ := workloads.Get(name)
		p := s.Build(workloads.Smoke)()
		train, _ := p.FindLoop("train")
		a := analyze.AnalyzeLoop(p, train)
		found := false
		for _, n := range a.Changeset {
			if n == "net" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: net missing from static changeset %v", name, a.Changeset)
		}
	}
}

func TestRecordReplayEveryWorkload(t *testing.T) {
	// End-to-end: record at smoke scale, then (a) unprobed replay, (b)
	// inner-probed parallel replay. Both must pass the deferred check.
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			factory := s.Build(workloads.Smoke)
			rec, err := core.Record(t.TempDir(), factory, core.RecordOptions{DisableAdaptive: true})
			if err != nil {
				t.Fatal(err)
			}
			clean, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(clean.Anomalies) != 0 {
				t.Fatalf("unprobed replay anomalies: %v", clean.Anomalies)
			}
			if clean.Workers[0].Executed != 0 {
				t.Fatalf("unprobed replay executed %d train loops", clean.Workers[0].Executed)
			}

			probed, err := replay.Replay(rec.Recording, workloads.WithInnerProbe(factory),
				replay.Options{Workers: 2, Init: replay.Weak})
			if err != nil {
				t.Fatal(err)
			}
			if len(probed.Anomalies) != 0 {
				t.Fatalf("probed replay anomalies: %v", probed.Anomalies)
			}
			probeLines := 0
			for _, l := range probed.Logs {
				if strings.HasPrefix(l, "hindsight_grad_norm: ") {
					probeLines++
				}
			}
			if probeLines == 0 {
				t.Fatal("inner probe produced no hindsight logs")
			}
		})
	}
}

func TestOuterProbeSkipsTraining(t *testing.T) {
	s, _ := workloads.Get("Cifr")
	factory := s.Build(workloads.Smoke)
	rec, err := core.Record(t.TempDir(), factory, core.RecordOptions{DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Replay(rec.Recording, workloads.WithOuterProbe(factory), replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
	if res.Workers[0].Executed != 0 {
		t.Fatalf("outer probe executed %d train loops, want 0", res.Workers[0].Executed)
	}
	found := 0
	for _, l := range res.Logs {
		if strings.HasPrefix(l, "hindsight_weight_norm: ") {
			found++
		}
	}
	if found != s.Epochs(workloads.Smoke) {
		t.Fatalf("weight-norm probe lines = %d, want %d", found, s.Epochs(workloads.Smoke))
	}
}

func TestFactoriesAreIndependent(t *testing.T) {
	// Two instances from the same factory must not share model state.
	s, _ := workloads.Get("Wiki")
	factory := s.Build(workloads.Smoke)
	p1, p2 := factory(), factory()
	env1, env2 := script.NewEnv(), script.NewEnv()
	if err := script.ExecStmts(&script.Ctx{Env: env1}, p1.Setup); err != nil {
		t.Fatal(err)
	}
	if err := script.ExecStmts(&script.Ctx{Env: env2}, p2.Setup); err != nil {
		t.Fatal(err)
	}
	if env1.MustGet("net") == env2.MustGet("net") {
		t.Fatal("factory instances share the model value")
	}
}
