package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/obs"
)

// costVector is a quick-generatable random cost model: up to 512 iterations
// of bounded non-negative work cost.
type costVector struct {
	Work []int64
	G    int
}

// Generate implements quick.Generator with bounded sizes and costs.
func (costVector) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(512)
	cv := costVector{Work: make([]int64, n), G: 1 + r.Intn(24)}
	for i := range cv.Work {
		// Heavy-tailed on occasion so skew is exercised, zeros included.
		switch r.Intn(4) {
		case 0:
			cv.Work[i] = 0
		case 1:
			cv.Work[i] = int64(r.Intn(10))
		default:
			cv.Work[i] = int64(r.Intn(1_000_000))
		}
	}
	return reflect.ValueOf(cv)
}

// checkSegments verifies segments are contiguous, disjoint, in order, and
// cover exactly [0, n).
func checkSegments(t *testing.T, segs [][2]int, n int) {
	t.Helper()
	if n <= 0 {
		if len(segs) != 0 {
			t.Fatalf("n=%d: want no segments, got %v", n, segs)
		}
		return
	}
	if len(segs) == 0 {
		t.Fatalf("n=%d: no segments", n)
	}
	if segs[0][0] != 0 || segs[len(segs)-1][1] != n {
		t.Fatalf("segments %v do not span [0,%d)", segs, n)
	}
	for i, s := range segs {
		if s[0] >= s[1] {
			t.Fatalf("segment %d = %v is empty or inverted", i, s)
		}
		if i > 0 && segs[i-1][1] != s[0] {
			t.Fatalf("segments %d and %d are not contiguous: %v", i-1, i, segs)
		}
	}
}

// allAnchored returns the anchor slice of an n-iteration loop whose every
// iteration was materialized.
func allAnchored(n int) []int {
	anchors := make([]int, n)
	for i := range anchors {
		anchors[i] = i
	}
	return anchors
}

// uniformSplit is the reference the partitioner is held against: the paper's
// §5.4.1 split of n iterations into at most g contiguous segments whose sizes
// differ by at most one, blind to cost.
func uniformSplit(n, g int) [][2]int {
	if n <= 0 || g <= 0 {
		return nil
	}
	if g > n {
		g = n
	}
	segs := make([][2]int, 0, g)
	start := 0
	for i := 0; i < g; i++ {
		size := n / g
		if i < n%g {
			size++
		}
		segs = append(segs, [2]int{start, start + size})
		start += size
	}
	return segs
}

func TestPartitionBalancedProperties(t *testing.T) {
	prop := func(cv costVector) bool {
		c := &Costs{WorkNs: cv.Work}
		segs := PartitionBalanced(c, cv.G)
		checkSegments(t, segs, len(cv.Work))
		if len(segs) > cv.G {
			t.Fatalf("balanced produced %d segments for g=%d", len(segs), cv.G)
		}
		// The balanced bottleneck never exceeds the uniform split's on the
		// same cost vector (its defining property).
		static := uniformSplit(len(cv.Work), cv.G)
		balancedMax := maxSegCost(c, segs)
		staticMax := maxSegCost(c, static)
		if balancedMax > staticMax {
			t.Fatalf("balanced bottleneck %d > uniform split %d for %v g=%d",
				balancedMax, staticMax, cv.Work, cv.G)
		}
		// And it is the optimum: the heaviest iteration alone, or a cost no
		// partition into g segments can go below.
		var heaviest int64
		for _, w := range cv.Work {
			if w > heaviest {
				heaviest = w
			}
		}
		if balancedMax > heaviest && segmentsNeeded(cv.Work, balancedMax-1) <= cv.G {
			t.Fatalf("balanced bottleneck %d is not minimal for %v g=%d", balancedMax, cv.Work, cv.G)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func maxSegCost(c *Costs, segs [][2]int) int64 {
	var max int64
	for _, s := range segs {
		if w := c.WorkCostNs(s[0], s[1]); w > max {
			max = w
		}
	}
	return max
}

func TestPartitionBalancedDeterministic(t *testing.T) {
	prop := func(cv costVector) bool {
		c := &Costs{WorkNs: cv.Work}
		a := PartitionBalanced(c, cv.G)
		b := PartitionBalanced(c, cv.G)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapToAnchorsProperties(t *testing.T) {
	prop := func(cv costVector, anchorSeed int64) bool {
		n := len(cv.Work)
		r := rand.New(rand.NewSource(anchorSeed))
		anchors := make([]int, 0)
		for e := 0; e < n; e++ {
			if r.Intn(3) == 0 {
				anchors = append(anchors, e)
			}
		}
		c := &Costs{WorkNs: cv.Work}
		segs := SnapToAnchors(PartitionBalanced(c, cv.G), anchors)
		checkSegments(t, segs, n)
		if len(segs) > cv.G {
			t.Fatalf("snapped partition has %d segments for g=%d", len(segs), cv.G)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionBalancedUniformIsUniformSplit: on uniform costs the
// partition is the paper's split exactly — sizes differing by at most one,
// larger first — whether or not g divides n.
func TestPartitionBalancedUniformIsUniformSplit(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for g := 1; g <= 20; g++ {
			if got, want := PartitionBalanced(Uniform(n), g), uniformSplit(n, g); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d g=%d: balanced %v != uniform split %v", n, g, got, want)
			}
		}
	}
	// Whatever the unit of cost.
	c := &Costs{WorkNs: make([]int64, 200)}
	for i := range c.WorkNs {
		c.WorkNs[i] = 1_000_000
	}
	if got, want := PartitionBalanced(c, 16), uniformSplit(200, 16); !reflect.DeepEqual(got, want) {
		t.Fatalf("n=200 g=16: balanced %v != uniform split %v", got, want)
	}
}

func TestPartitionBalancedSkew(t *testing.T) {
	// One huge iteration at the head: static packs it with 63 others;
	// balanced isolates it.
	c := &Costs{WorkNs: make([]int64, 256)}
	for i := range c.WorkNs {
		c.WorkNs[i] = 1
	}
	c.WorkNs[0] = 1000
	segs := PartitionBalanced(c, 4)
	checkSegments(t, segs, 256)
	if got := maxSegCost(c, segs); got != 1000 {
		t.Fatalf("balanced bottleneck = %d, want 1000 (the indivisible head)", got)
	}
	if segs[0] != [2]int{0, 1} {
		t.Fatalf("first segment %v should isolate the heavy iteration", segs[0])
	}
}

func TestPartitionBalancedAnchoredGatesSnap(t *testing.T) {
	// A single early anchor: unconditionally snapping boundary 32 to free
	// boundary 1 would collapse the first segments into [0,1),[1,64),...
	// and roughly double the makespan. The gated partitioner must reject
	// that snap and keep the balance.
	c := Uniform(128)
	anchors := []int{0}
	segs := PartitionBalancedAnchored(c, 4, Weak, anchors)
	checkSegments(t, segs, 128)
	plain := PartitionBalanced(c, 4)
	if got, want := c.Makespan(segs, Weak, anchors), c.Makespan(plain, Weak, anchors); got > want {
		t.Fatalf("anchored partition makespan %d exceeds unsnapped %d", got, want)
	}
	if got := maxSegCost(c, segs); got > 2*maxSegCost(c, plain) {
		t.Fatalf("snap collapsed the balance: bottleneck %d vs plain %d", got, maxSegCost(c, plain))
	}
}

func TestAnchorBefore(t *testing.T) {
	anchors := []int{2, 5, 9}
	for _, tc := range []struct{ target, want int }{
		{0, 0}, {1, 0}, {2, 2}, {4, 2}, {5, 5}, {8, 5}, {9, 9}, {100, 9},
	} {
		if got := AnchorBefore(anchors, tc.target); got != tc.want {
			t.Fatalf("AnchorBefore(%v, %d) = %d, want %d", anchors, tc.target, got, tc.want)
		}
	}
	if got := AnchorBefore(nil, 7); got != 0 {
		t.Fatalf("nil anchors are no anchors and fall back to 0; got %d", got)
	}
	if got := AnchorBefore([]int{}, 7); got != 0 {
		t.Fatalf("no anchors fall back to 0; got %d", got)
	}
}

func TestMakespanInitAccounting(t *testing.T) {
	c := &Costs{
		WorkNs:    []int64{10, 10, 10, 10},
		CatchupNs: []int64{1, 2, 3, 4},
		SetupNs:   100,
	}
	segs := [][2]int{{0, 2}, {2, 4}}
	all := allAnchored(4)
	// Weak with all anchored: second worker pays one catch-up (iteration 1).
	if got := c.Makespan(segs, Weak, all); got != 100+2+20 {
		t.Fatalf("weak makespan = %d, want 122", got)
	}
	// Strong: second worker pays catch-up 0 and 1.
	if got := c.Makespan(segs, Strong, all); got != 100+1+2+20 {
		t.Fatalf("strong makespan = %d, want 123", got)
	}
	// Weak with an anchor only at 0: catch-up covers [0, 2).
	if got := c.Makespan(segs, Weak, []int{0}); got != 100+1+2+20 {
		t.Fatalf("weak makespan with sparse anchors = %d, want 123", got)
	}
}

func TestSimulateUniformMatchesBalanced(t *testing.T) {
	c := Uniform(64)
	c.SetupNs = 5
	sim := Simulate(c, 8, Weak, allAnchored(64), nil)
	segs := PartitionBalanced(c, 8)
	want := c.Makespan(segs, Weak, allAnchored(64))
	if sim.MakespanNs != want {
		t.Fatalf("uniform makespan %d != balanced partition's %d", sim.MakespanNs, want)
	}
	if sim.Steals != 0 {
		t.Fatalf("uniform costs should need no steals, got %d", sim.Steals)
	}
}

func TestSimulateBeatsUniformSplitOnSkew(t *testing.T) {
	// Head-heavy costs: the uniform split's first worker drowns; balancing
	// redistributes.
	c := &Costs{WorkNs: make([]int64, 128), CatchupNs: make([]int64, 128)}
	for i := range c.WorkNs {
		c.WorkNs[i] = 1
		c.CatchupNs[i] = 1
		if i < 16 {
			c.WorkNs[i] = 100
		}
	}
	staticSpan := c.Makespan(uniformSplit(128, 8), Weak, allAnchored(128))
	sim := Simulate(c, 8, Weak, allAnchored(128), nil)
	if sim.MakespanNs*2 > staticSpan {
		t.Fatalf("makespan %d not at least 2x better than the uniform split's %d", sim.MakespanNs, staticSpan)
	}
}

// TestSimulateScaleoutBars carries the scale-out acceptance bars: on
// Zipf-skewed costs (the head-heavy shape of warmup-dominated loops and
// heavy probes on early epochs) the scheduler beats the uniform split by at
// least 1.5x at G>=8, and on uniform costs it is never worse. 256
// iterations of 10ms compute and 0.2ms restore, 5ms setup, weak init.
func TestSimulateScaleoutBars(t *testing.T) {
	const n, computNs, restoreNs, setupNs, zipfS = 256, 10_000_000, 200_000, 5_000_000, 1.1
	uniform := &Costs{SetupNs: setupNs}
	zipf := &Costs{SetupNs: setupNs}
	var norm float64
	for e := 1; e <= n; e++ {
		norm += 1 / math.Pow(float64(e), zipfS)
	}
	for e := 0; e < n; e++ {
		uniform.WorkNs = append(uniform.WorkNs, computNs)
		uniform.CatchupNs = append(uniform.CatchupNs, restoreNs)
		// Same total compute as the uniform vector, redistributed.
		w := 1 / math.Pow(float64(e+1), zipfS)
		zipf.WorkNs = append(zipf.WorkNs, int64(w*float64(computNs*n)/norm))
		zipf.CatchupNs = append(zipf.CatchupNs, restoreNs)
	}
	all := allAnchored(n)
	for _, g := range []int{4, 8, 16} {
		if got, ref := Simulate(uniform, g, Weak, all, nil).MakespanNs, uniform.Makespan(uniformSplit(n, g), Weak, all); got > ref {
			t.Errorf("uniform G=%d: makespan %d worse than the uniform split's %d", g, got, ref)
		}
		got, ref := Simulate(zipf, g, Weak, all, nil).MakespanNs, zipf.Makespan(uniformSplit(n, g), Weak, all)
		if got > ref {
			t.Errorf("zipf G=%d: makespan %d worse than the uniform split's %d", g, got, ref)
		}
		if g >= 8 && float64(ref) < 1.5*float64(got) {
			t.Errorf("zipf G=%d: %.2fx over the uniform split, want >= 1.5x", g, float64(ref)/float64(got))
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	c := &Costs{WorkNs: make([]int64, 200), CatchupNs: make([]int64, 200)}
	r := rand.New(rand.NewSource(42))
	for i := range c.WorkNs {
		c.WorkNs[i] = int64(r.Intn(1000)) + 1
		c.CatchupNs[i] = int64(r.Intn(10)) + 1
	}
	a := Simulate(c, 6, Weak, allAnchored(200), nil)
	b := Simulate(c, 6, Weak, allAnchored(200), nil)
	if a.MakespanNs != b.MakespanNs || a.Steals != b.Steals || !reflect.DeepEqual(a.WorkerNs, b.WorkerNs) {
		t.Fatalf("simulation is not deterministic: %+v vs %+v", a, b)
	}
}

func TestSimulateNoAnchorsNoSteals(t *testing.T) {
	// Without any materialized checkpoint, re-initializing a mid-replay
	// worker is unsafe, so stealing must stand down entirely.
	c := &Costs{WorkNs: make([]int64, 64), CatchupNs: make([]int64, 64)}
	for i := range c.WorkNs {
		c.WorkNs[i] = 1
		if i == 0 {
			c.WorkNs[i] = 1000
		}
		c.CatchupNs[i] = 1
	}
	sim := Simulate(c, 4, Weak, []int{}, nil)
	if sim.Steals != 0 {
		t.Fatalf("no anchors: want 0 steals, got %d", sim.Steals)
	}
}

// TestSimulateEmptyLoop: a zero-iteration loop still costs one worker its
// setup (it runs the program's tail); the others never start.
func TestSimulateEmptyLoop(t *testing.T) {
	c := &Costs{SetupNs: 7}
	sim := Simulate(c, 3, Strong, nil, nil)
	if sim.MakespanNs != 7 || !reflect.DeepEqual(sim.WorkerNs, []int64{7, 0, 0}) {
		t.Fatalf("empty loop: %+v, want one worker paying setup", sim)
	}
}

// TestSimulateAgreesWithExecutor pins that the simulator adds nothing to the
// scheduler but a clock: an independent single-threaded drive of Executor
// over the same costs and anchors — earliest worker acts next, lowest id on
// ties — ends with exactly the lease boundaries, owners and stolen marks of
// Simulate's trace.
func TestSimulateAgreesWithExecutor(t *testing.T) {
	type span struct{ worker, start, end, stolen int }
	steals := 0
	for _, tc := range []struct {
		name    string
		seed    int64
		n, g    int
		init    Init
		anchors []int
	}{
		{"dense-weak", 1, 96, 5, Weak, allAnchored(96)},
		{"dense-strong", 2, 64, 4, Strong, allAnchored(64)},
		{"sparse-weak", 3, 120, 6, Weak, []int{0, 9, 10, 31, 32, 33, 70, 71, 100}},
		{"more-workers-than-segments", 4, 5, 9, Weak, allAnchored(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(tc.seed))
			c := &Costs{SetupNs: 50, WorkNs: make([]int64, tc.n), CatchupNs: make([]int64, tc.n)}
			for i := range c.WorkNs {
				c.WorkNs[i] = 1 + int64(r.Intn(100))
				if i < tc.n/6 {
					c.WorkNs[i] *= 40
				}
				c.CatchupNs[i] = 1 + int64(r.Intn(20))
			}

			tr := obs.NewVirtualTrace()
			sim := Simulate(c, tc.g, tc.init, tc.anchors, tr)
			var got []span
			for _, sp := range tr.Spans() {
				if sp.Name == "work" {
					got = append(got, span{sp.Worker, int(sp.Attrs["start"]), int(sp.Attrs["end"]), int(sp.Attrs["stolen"])})
				}
			}

			x := NewExecutor(c, PartitionBalancedAnchored(c, tc.g, tc.init, tc.anchors), tc.anchors)
			clock := make([]int64, tc.g)
			pos := make([]int, tc.g)
			lease := make([]*Lease, tc.g)
			started := make([]bool, tc.g)
			done := make([]bool, tc.g)
			var want []span
			for {
				w := -1
				for i := range clock {
					if !done[i] && (w < 0 || clock[i] < clock[w]) {
						w = i
					}
				}
				if w < 0 {
					break
				}
				if lease[w] == nil {
					if lease[w] = x.Claim(pos[w]); lease[w] == nil {
						done[w] = true
						continue
					}
					mode := Weak
					if !started[w] {
						started[w], mode = true, tc.init
						clock[w] += c.SetupNs
					}
					if lease[w].Start() != pos[w] {
						clock[w] += c.InitCostNs(lease[w].Start(), mode, tc.anchors)
					}
				} else if i, ok := lease[w].Next(); ok {
					clock[w] += c.WorkNs[i]
				} else {
					s, e := lease[w].Bounds()
					stolen := 0
					if lease[w].Stolen() {
						stolen = 1
					}
					want = append(want, span{w, s, e, stolen})
					pos[w], lease[w] = e, nil
				}
			}

			byStart := func(s []span) { sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start }) }
			byStart(got)
			byStart(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("simulated leases diverge from the executor's:\n sim: %v\nexec: %v", got, want)
			}
			if !reflect.DeepEqual(sim.WorkerNs, clock) || sim.Steals != x.Steals() {
				t.Fatalf("sim %v/%d steals, executor drive %v/%d", sim.WorkerNs, sim.Steals, clock, x.Steals())
			}
			next := 0
			for _, s := range want {
				if s.start != next {
					t.Fatalf("leases leave a gap or overlap at %d: %v", next, want)
				}
				next = s.end
			}
			if next != tc.n {
				t.Fatalf("leases end at %d, want %d", next, tc.n)
			}
			steals += sim.Steals
		})
	}
	if steals == 0 {
		t.Fatal("no case stole: the agreement was only checked on initial leases")
	}
}
