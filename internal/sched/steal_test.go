package sched

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// runExecutor drives an Executor with `workers` goroutines over n iterations
// and returns every claimed (worker, iteration) pair grouped by lease spans.
// Each worker busy-loops claiming iterations like a replay worker would,
// optionally jittering to shuffle interleavings.
func runExecutor(t *testing.T, c *Costs, g int, anchors []int, jitter bool) ([][2]int, []int) {
	t.Helper()
	n := c.N()
	segs := SnapToAnchors(PartitionBalanced(c, g), anchors)
	x := NewExecutor(c, segs, anchors)

	var mu sync.Mutex
	var spans [][2]int
	claimed := make([]int, 0, n)

	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			pos := 0
			for {
				lease := x.Claim(pos)
				if lease == nil {
					return
				}
				var mine []int
				for {
					i, ok := lease.Next()
					if !ok {
						break
					}
					mine = append(mine, i)
					if jitter && r.Intn(4) == 0 {
						for spin := 0; spin < r.Intn(200); spin++ {
							_ = spin
						}
					}
				}
				start, end := lease.Bounds()
				mu.Lock()
				spans = append(spans, [2]int{start, end})
				claimed = append(claimed, mine...)
				mu.Unlock()
				pos = end
			}
		}(w)
	}
	wg.Wait()
	return spans, claimed
}

// TestExecutorStress runs many workers over tiny leases and verifies the
// fundamental invariant: every iteration is claimed exactly once, and each
// finished lease's bounds exactly match the iterations its owner claimed.
func TestExecutorStress(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, g    int
		anchors []int // nil = all anchored
	}{
		{"tiny-leases", 512, 16, nil},
		{"more-workers-than-work", 8, 16, nil},
		{"single-worker", 64, 1, nil},
		{"sparse-anchors", 300, 8, []int{0, 17, 50, 51, 52, 123, 200, 250}},
		{"no-anchors", 100, 8, []int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Uniform(tc.n)
			// Skew the head so stealing has something to chew on.
			for i := 0; i < tc.n/8; i++ {
				c.WorkNs[i] = 50
			}
			spans, claimed := runExecutor(t, c, tc.g, tc.anchors, true)
			if len(claimed) != tc.n {
				t.Fatalf("claimed %d iterations, want %d", len(claimed), tc.n)
			}
			seen := make([]bool, tc.n)
			for _, i := range claimed {
				if seen[i] {
					t.Fatalf("iteration %d claimed twice", i)
				}
				seen[i] = true
			}
			// Spans are disjoint and cover [0, n) exactly.
			sort.Slice(spans, func(a, b int) bool { return spans[a][0] < spans[b][0] })
			pos := 0
			for _, s := range spans {
				if s[0] != pos {
					t.Fatalf("span gap or overlap at %d: spans %v", pos, spans)
				}
				pos = s[1]
			}
			if pos != tc.n {
				t.Fatalf("spans end at %d, want %d", pos, tc.n)
			}
		})
	}
}

// TestExecutorStealCounts verifies that workers arriving after the only
// initial lease is taken split it rather than leave, and that the split
// leases still cover every iteration once.
func TestExecutorStealCounts(t *testing.T) {
	c := Uniform(256)
	for i := 0; i < 16; i++ {
		c.WorkNs[i] = 1000
	}
	x := NewExecutor(c, PartitionBalanced(c, 1), nil)
	leases := []*Lease{x.Claim(0)}
	for w := 1; w < 8; w++ {
		l := x.Claim(0)
		if l == nil || !l.Stolen() {
			t.Fatalf("worker %d: claim = %v, want a stolen lease", w, l)
		}
		leases = append(leases, l)
	}
	total := 0
	for _, l := range leases {
		for {
			if _, ok := l.Next(); !ok {
				break
			}
			total++
		}
	}
	if total != 256 {
		t.Fatalf("executed %d iterations, want 256", total)
	}
	if x.Steals() != 7 {
		t.Fatalf("steals = %d, want 7", x.Steals())
	}
}

// TestNoteIterDoneRepricesSteals pins the work-time feedback loop: when
// measured iterations come in far cheaper than the model claimed, a steal
// whose modeled profit looked positive must stop being approved — the real
// work left no longer covers the catch-up cost.
func TestNoteIterDoneRepricesSteals(t *testing.T) {
	n := 64
	c := Uniform(n)
	for i := range c.WorkNs {
		c.WorkNs[i] = 1000 // modeled: plenty of work per iteration
	}
	// Weak catch-up costs something real but below the modeled remainder.
	c.CatchupNs = make([]int64, n)
	for i := range c.CatchupNs {
		c.CatchupNs[i] = 4000
	}

	fresh := func() *Executor {
		return NewExecutor(c, [][2]int{{0, n}}, nil) // all iterations anchored
	}

	// Baseline: with the model untouched, stealing half the lease is
	// profitable (≈32k work vs 4k catch-up).
	x := fresh()
	if _, ok := x.Steal(); !ok {
		t.Fatal("modeled costs should approve the steal")
	}

	// Feedback: measured iterations are 100x cheaper than modeled. After the
	// EWMA converges, the same steal must be rejected (real remaining work
	// ≈320ns < catch-up 4000ns).
	x = fresh()
	for i := 0; i < 50; i++ {
		x.NoteIterDone(i%n, 10)
	}
	if ws := x.WorkScale(); ws > 0.05 {
		t.Fatalf("work scale = %g, want ~0.01", ws)
	}
	if _, ok := x.Steal(); ok {
		t.Fatal("measured costs should reject the steal")
	}
}

// TestNoteIterDoneIgnoresJunk pins that unusable observations (non-positive
// times, iterations with no modeled cost) leave the scale at its neutral 1.0.
func TestNoteIterDoneIgnoresJunk(t *testing.T) {
	c := Uniform(8)
	x := NewExecutor(c, [][2]int{{0, 8}}, nil)
	x.NoteIterDone(3, 0)
	x.NoteIterDone(3, -5)
	x.NoteIterDone(-1, 100)
	x.NoteIterDone(99, 100)
	if ws := x.WorkScale(); ws != 1.0 {
		t.Fatalf("work scale = %g, want 1.0 with no valid samples", ws)
	}
}

// TestClaimOrder pins what a ready worker is handed: the unclaimed initial
// lease adjacent to its state first, then the first other unclaimed initial
// lease, then a steal.
func TestClaimOrder(t *testing.T) {
	c := Uniform(40)
	segs := [][2]int{{0, 10}, {10, 20}, {20, 30}, {30, 40}}
	x := NewExecutor(c, segs, nil)
	a := x.Claim(0)
	b := x.Claim(0) // a second fresh worker: lease 0 is taken, next unclaimed
	if s, _ := a.Bounds(); s != 0 || a.Stolen() {
		t.Fatalf("first claim = lease at %d", s)
	}
	if s, _ := b.Bounds(); s != 10 || b.Stolen() {
		t.Fatalf("second fresh claim = lease at %d, want 10", s)
	}
	// Worker a finishes [0,10): the adjacent lease is b's, so it moves on to
	// the first unclaimed one.
	for {
		if _, ok := a.Next(); !ok {
			break
		}
	}
	if x.Exhausted() {
		t.Fatal("exhausted with two leases unclaimed")
	}
	a2 := x.Claim(10)
	if s, _ := a2.Bounds(); s != 20 {
		t.Fatalf("non-adjacent claim = lease at %d, want 20", s)
	}
	for {
		if _, ok := a2.Next(); !ok {
			break
		}
	}
	// Now [30,40) starts where a's state sits: adjacent, no re-init.
	if a3 := x.Claim(30); a3.Start() != 30 || a3.Stolen() {
		t.Fatalf("adjacent claim = lease at %d stolen=%v", a3.Start(), a3.Stolen())
	}
	// Every initial lease is claimed: the next claim is a steal.
	if l := x.Claim(0); l == nil || !l.Stolen() {
		t.Fatalf("claim with all initial leases taken = %+v, want a stolen lease", l)
	}
}

// TestClaimNonAdjacentNeedsAnchor: a worker carrying state from another span
// may only take a lease it can reach from a restored checkpoint; a fresh
// worker (pos 0) can initialize to anything.
func TestClaimNonAdjacentNeedsAnchor(t *testing.T) {
	c := Uniform(30)
	segs := [][2]int{{0, 10}, {10, 20}, {20, 30}}
	x := NewExecutor(c, segs, []int{}) // no checkpoints at all
	x.Claim(0)
	if l := x.Claim(5); l != nil {
		t.Fatalf("state-carrying worker claimed [%d,..) with no anchor to re-initialize from", l.Start())
	}
	if l := x.Claim(10); l == nil || l.Start() != 10 {
		t.Fatal("adjacent lease needs no anchor")
	}
	if l := x.Claim(0); l == nil || l.Start() != 20 {
		t.Fatal("a fresh worker initializes from iteration 0 and can take any lease")
	}
}

// TestExecutorEmptyLoop: a zero-iteration loop is one empty lease, claimed
// once, so exactly one worker runs setup and tail.
func TestExecutorEmptyLoop(t *testing.T) {
	x := NewExecutor(Uniform(0), nil, nil)
	l := x.Claim(0)
	if l == nil {
		t.Fatal("no lease for the empty loop")
	}
	if _, ok := l.Next(); ok {
		t.Fatal("empty lease handed out an iteration")
	}
	if s, e := l.Bounds(); s != 0 || e != 0 {
		t.Fatalf("empty lease bounds [%d,%d)", s, e)
	}
	if !x.Exhausted() || x.Claim(0) != nil {
		t.Fatal("empty loop claimable twice")
	}
}
