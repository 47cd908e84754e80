package sched

import (
	"testing"
	"testing/quick"
)

// uniformCosts builds an inner-probe model of n iterations: each re-executes
// at computNs of work and catches up with one restore of restoreNs.
func uniformCosts(n int, computNs, restoreNs, setupNs int64) *Costs {
	c := &Costs{SetupNs: setupNs}
	for i := 0; i < n; i++ {
		c.WorkNs = append(c.WorkNs, computNs)
		c.CatchupNs = append(c.CatchupNs, restoreNs)
	}
	return c
}

// skewedCosts builds a head-heavy model: the first heavy iterations cost
// factor times the rest.
func skewedCosts(n, heavy int, factor int64) *Costs {
	c := uniformCosts(n, 1_000_000, 10_000, 0)
	for i := 0; i < heavy; i++ {
		c.WorkNs[i] *= factor
	}
	return c
}

// sequentialNs is one worker re-executing everything: setup plus every
// iteration's work.
func sequentialNs(c *Costs) int64 { return c.SetupNs + c.WorkCostNs(0, c.N()) }

// speedup is the sequential re-execution's time over sim's makespan.
func speedup(c *Costs, sim *SimResult) float64 {
	return float64(sequentialNs(c)) / float64(sim.MakespanNs)
}

// idealSpeedup is n / ⌈n/g⌉, the best g workers can do on uniform costs.
func idealSpeedup(n, g int) float64 {
	return float64(n) / float64((n+g-1)/g)
}

func TestSimulateSequentialBaseline(t *testing.T) {
	c := uniformCosts(10, 1000, 10, 500)
	sim := Simulate(c, 1, Strong, allAnchored(10), nil)
	if sim.MakespanNs != 500+10*1000 {
		t.Fatalf("G=1 makespan = %d", sim.MakespanNs)
	}
	if s := speedup(c, sim); s != 1 {
		t.Fatalf("G=1 speedup = %g", s)
	}
}

func TestSimulateNearIdealScaling(t *testing.T) {
	// Restores and setup are cheap relative to compute: parallel replay of a
	// probed inner loop should scale near-ideally (Fig 13).
	c := uniformCosts(200, 1_000_000, 1000, 10_000)
	for _, g := range []int{4, 8, 16} {
		s := speedup(c, Simulate(c, g, Weak, allAnchored(200), nil))
		ideal := idealSpeedup(200, g)
		if s < ideal*0.95 {
			t.Fatalf("G=%d speedup %.2f below 95%% of ideal %.2f", g, s, ideal)
		}
		if s > ideal*1.001 {
			t.Fatalf("G=%d speedup %.2f exceeds ideal %.2f", g, s, ideal)
		}
	}
}

func TestSimulateStrongInitCostsMoreThanWeak(t *testing.T) {
	c := uniformCosts(100, 1_000_000, 10_000, 0)
	strong := Simulate(c, 4, Strong, allAnchored(100), nil)
	weak := Simulate(c, 4, Weak, allAnchored(100), nil)
	if strong.MakespanNs <= weak.MakespanNs {
		t.Fatalf("strong makespan %d should exceed weak %d (more init restores)",
			strong.MakespanNs, weak.MakespanNs)
	}
	// But with restores ≪ compute the difference is negligible (paper:
	// "the difference between weak and strong initialization is negligible").
	if float64(strong.MakespanNs) > float64(weak.MakespanNs)*1.05 {
		t.Fatalf("strong %d vs weak %d: more than 5%% apart", strong.MakespanNs, weak.MakespanNs)
	}
}

func TestSimulateUnprobedReplayIsFast(t *testing.T) {
	// Outer-loop probe: every iteration restores (1µs) instead of computing
	// (10ms); the replay should be orders of magnitude faster than
	// re-executing sequentially.
	c := uniformCosts(100, 1000, 1000, 0)
	sim := Simulate(c, 1, Strong, allAnchored(100), nil)
	if s := float64(100*10_000_000) / float64(sim.MakespanNs); s < 1000 {
		t.Fatalf("partial replay speedup = %.1f, want >= 1000x", s)
	}
}

func TestQuickSimulateWorkerCountAndMakespan(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw%100) + 1
		g := int(gRaw%20) + 1
		c := uniformCosts(n, 1000, 10, 5)
		sim := Simulate(c, g, Weak, allAnchored(n), nil)
		if len(sim.WorkerNs) == 0 {
			return false
		}
		// Makespan is the max over workers; speedup cannot exceed ideal.
		var maxW int64
		for _, w := range sim.WorkerNs {
			maxW = max(maxW, w)
		}
		return maxW == sim.MakespanNs && speedup(c, sim) <= float64(g)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateUniformCostsHeld pins the Figure 10/13/14 numbers where the
// uniform split was already optimal: on uniform costs with G dividing n the
// makespan is exactly setup + one restore of catch-up + n/G iterations, and
// when G does not divide n it is the uniform split's, under either
// initialization (the partitioner hands out the same sizes, larger first,
// and a one-iteration imbalance leaves nothing worth stealing).
func TestSimulateUniformCostsHeld(t *testing.T) {
	const computNs, restoreNs, setupNs = 1_000_000, 1000, 10_000
	c, all := uniformCosts(256, computNs, restoreNs, setupNs), allAnchored(256)
	for _, g := range []int{1, 2, 4, 8, 16} {
		want := int64(setupNs + 256/g*computNs)
		if g > 1 {
			want += restoreNs
		}
		sim := Simulate(c, g, Weak, all, nil)
		if sim.MakespanNs != want || sim.Steals != 0 {
			t.Errorf("n=256 G=%d: makespan %d with %d steals, want %d with none", g, sim.MakespanNs, sim.Steals, want)
		}
		if ref := c.Makespan(uniformSplit(256, g), Weak, all); ref != want {
			t.Errorf("n=256 G=%d: reference %d disagrees with the closed form %d", g, ref, want)
		}
	}
	c, all = uniformCosts(200, computNs, restoreNs, setupNs), allAnchored(200)
	for _, g := range []int{1, 2, 4, 8, 16} {
		for _, init := range []Init{Weak, Strong} {
			sim := Simulate(c, g, init, all, nil)
			if ref := c.Makespan(uniformSplit(200, g), init, all); sim.MakespanNs != ref {
				t.Errorf("n=200 G=%d %v: makespan %d, the uniform split's is %d", g, init, sim.MakespanNs, ref)
			}
		}
	}
}

func TestSimulateMakespanIsMaxWorker(t *testing.T) {
	sim := Simulate(skewedCosts(64, 8, 10), 4, Strong, allAnchored(64), nil)
	var want int64
	for _, w := range sim.WorkerNs {
		want = max(want, w)
	}
	if sim.MakespanNs != want {
		t.Fatalf("makespan %d != max worker %d", sim.MakespanNs, want)
	}
	if len(sim.WorkerNs) != 4 {
		t.Fatalf("worker count %d, want 4", len(sim.WorkerNs))
	}
}
