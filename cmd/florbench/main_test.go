package main

import (
	"strings"
	"testing"

	"flor.dev/flor/internal/bench"
	"flor.dev/flor/internal/workloads"
)

func TestSelectExperiments(t *testing.T) {
	sel, err := selectExperiments("fig7, table3")
	if err != nil {
		t.Fatal(err)
	}
	// The harness's order, not the flag's.
	if len(sel) != 2 || sel[0].Name != "table3" || sel[1].Name != "fig7" {
		t.Fatalf("selected %v", sel)
	}
	if sel, err = selectExperiments("all"); err != nil || len(sel) != len(expNames())-1 {
		t.Fatalf("all: %d experiments, err %v", len(sel), err)
	}

	_, err = selectExperiments("table3,nonsense")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range expNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name accepted experiment %q", err, name)
		}
	}
}

func TestParseArgsRejectsUnknownScale(t *testing.T) {
	cfg, err := parseArgs([]string{"-exp", "fig10", "-scale", "smoke"})
	if err != nil || cfg.scale != workloads.Smoke || len(cfg.sel) != 1 {
		t.Fatalf("-scale smoke: %+v, %v", cfg, err)
	}
	if cfg, err = parseArgs(nil); err != nil || cfg.scale != workloads.Full || len(cfg.sel) != len(bench.Experiments) {
		t.Fatalf("defaults: %+v, %v", cfg, err)
	}
	// A typo must not pick a scale: "Smoke" is not smoke, and not full.
	for _, bad := range []string{"Smoke", "ful", ""} {
		_, err := parseArgs([]string{"-scale", bad})
		if err == nil || !strings.Contains(err.Error(), "smoke") || !strings.Contains(err.Error(), "full") {
			t.Fatalf("-scale %q: err %v, want one naming the accepted scales", bad, err)
		}
	}
}
