package main

import (
	"strings"
	"testing"
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
