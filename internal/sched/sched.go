// Package sched schedules replay: it cuts the main loop into contiguous,
// checkpoint-anchored spans and hands them to share-nothing workers.
//
// The paper's hindsight-parallel replay (§5.4) splits the main loop's
// iterator into contiguous segments, one per worker. A uniform ⌈n/G⌉ split is
// near-ideal when every iteration costs the same, but any skew (adaptive
// sparse checkpointing per §5.3, heavy probes on a few epochs, fine-tuning
// workloads with tiny epochs) concentrates cost into one worker's segment and
// wrecks the makespan. There is one scheduler, in three files:
//
//   - sched.go — Costs: per-iteration work and catch-up (restore) costs plus
//     setup, derived from recorded timings. PartitionBalancedAnchored: the
//     initial partition, a contiguous split minimizing the maximum segment
//     work cost (binary search on the bottleneck, even shares under it) with
//     boundaries snapped to materialized checkpoints where that does not cost
//     makespan. On uniform costs it is the paper's ⌈n/G⌉ split.
//   - steal.go — Executor: the partition's segments become leases. A worker
//     that is ready to run Claims one — an initial lease nobody has started
//     (preferably the one adjacent to where its state already sits), else
//     the trailing part of the lease most profitable to split (stolen work
//     minus the thief's checkpoint re-initialization) — and comes back for
//     another when it runs dry.
//   - sim.go — Simulate: the same Executor driven under a virtual clock, so
//     the makespans behind Figures 10, 13 and 14 (internal/cluster) are
//     decisions of the scheduler replay runs, not of a second model of it.
//
// pool.go adds the serving tier above single replays: Pool is a global
// worker-slot budget shared by every concurrent query of a serving daemon.
// Replay workers and sample queries hold one slot while they compute, and
// waiters are granted slots cheapest-estimated-cost-first, so a point query
// priced at a few restores overtakes the queued workers of a large full
// replay instead of starving behind them. A replay worker acquires its slot
// before it claims a lease, so a replay squeezed to one slot runs as one
// sequential worker. The cost estimates come from the same Costs model the
// partitioner uses — scheduling inside a replay and between replays speak
// one currency.
package sched

import (
	"sort"
	"sync"
)

// Init selects the worker initialization strategy (paper §5.4.2). It lives
// here so the scheduler's cost accounting and the replay engine share one
// definition; internal/replay aliases it as InitMode.
type Init int

// Strong initialization replays every iteration preceding the work segment
// in init mode (the default: its correctness follows from the correctness of
// loop memoization). Weak initialization jumps to the checkpoint nearest the
// segment start.
const (
	Strong Init = iota
	Weak
)

// String renders the init mode.
func (m Init) String() string {
	if m == Weak {
		return "weak"
	}
	return "strong"
}

// Costs is the scheduler's cost model over one main loop of n iterations,
// derived from timings the record phase measured (runlog.Timings, store
// metadata) or synthesized by the cluster simulator.
type Costs struct {
	// WorkNs[e] estimates the cost of iteration e during the work phase of a
	// replay: compute time when the inner loop is probed (it re-executes),
	// restore time otherwise.
	WorkNs []int64
	// CatchupNs[e] estimates the cost of iteration e during initialization:
	// a checkpoint restore when iteration e's checkpoints were materialized,
	// a re-execution otherwise (the sparse-checkpoint fallback). Zero
	// entries fall back to the mean of the non-zero entries.
	CatchupNs []int64
	// SetupNs is the per-worker cost of program setup (imports, data
	// loading, model construction).
	SetupNs int64

	// meanOnce caches meanCatchup: catchupAt falls back to it for every
	// zero entry, and recomputing the O(n) mean inside the executor's
	// per-lease profitability scans would be quadratic.
	meanOnce    sync.Once
	meanCatchup int64
}

// Uniform returns the cost model the scheduler falls back to when no
// timings were recorded: every iteration costs one unit, catch-up is free.
// Under it the partition is the uniform ⌈n/G⌉ split and steals split by count.
func Uniform(n int) *Costs {
	c := &Costs{WorkNs: make([]int64, n)}
	for i := range c.WorkNs {
		c.WorkNs[i] = 1
	}
	return c
}

// N returns the number of iterations the model covers.
func (c *Costs) N() int { return len(c.WorkNs) }

// catchupMean returns the average of the non-zero catch-up costs (0 when
// none), computed once.
func (c *Costs) catchupMean() int64 {
	c.meanOnce.Do(func() {
		var sum, n int64
		for _, r := range c.CatchupNs {
			if r > 0 {
				sum += r
				n++
			}
		}
		if n > 0 {
			c.meanCatchup = sum / n
		}
	})
	return c.meanCatchup
}

// catchupAt returns the catch-up cost of iteration e with mean fallback.
func (c *Costs) catchupAt(e int) int64 {
	if e >= 0 && e < len(c.CatchupNs) && c.CatchupNs[e] > 0 {
		return c.CatchupNs[e]
	}
	return c.catchupMean()
}

// prefix returns P where P[i] = sum of WorkNs[0:i]; P has n+1 entries.
func (c *Costs) prefix() []int64 {
	p := make([]int64, len(c.WorkNs)+1)
	for i, w := range c.WorkNs {
		p[i+1] = p[i] + w
	}
	return p
}

// WorkCostNs returns the modeled work-phase cost of iterations [s, e).
func (c *Costs) WorkCostNs(s, e int) int64 {
	var sum int64
	for i := s; i < e && i < len(c.WorkNs); i++ {
		sum += c.WorkNs[i]
	}
	return sum
}

// InitCostNs returns the modeled cost of initializing a worker to iteration
// start: strong initialization catches up from 0, weak initialization from
// the nearest anchored iteration at or before start-1 (see AnchorBefore).
func (c *Costs) InitCostNs(start int, init Init, anchors []int) int64 {
	if start <= 0 {
		return 0
	}
	from := 0
	if init == Weak {
		from = AnchorBefore(anchors, start-1)
	}
	var sum int64
	for e := from; e < start; e++ {
		sum += c.catchupAt(e)
	}
	return sum
}

// Makespan returns the virtual makespan of executing segs: each worker pays
// setup, initialization catch-up to its segment start, and its segment's
// work; workers share nothing, so the makespan is the maximum (§5.4.4).
func (c *Costs) Makespan(segs [][2]int, init Init, anchors []int) int64 {
	var max int64
	for _, s := range segs {
		w := c.SetupNs + c.InitCostNs(s[0], init, anchors) + c.WorkCostNs(s[0], s[1])
		if w > max {
			max = w
		}
	}
	return max
}

// ---------- anchors ----------
//
// An "anchored" iteration is a main-loop iteration whose instrumented loops
// all have materialized checkpoints for every execution during it, so the
// whole iteration can be replayed by restoration alone. A nil anchor slice
// means every iteration is anchored (the cluster simulator's idealized
// default, matching its pre-existing weak-init model); an empty non-nil
// slice means none is. Anchor slices are sorted ascending.

// AnchorBefore returns the largest anchored iteration ≤ target, or 0 when
// none exists (the strong-initialization fallback).
func AnchorBefore(anchors []int, target int) int {
	if target <= 0 {
		return 0
	}
	if anchors == nil {
		return target
	}
	i := sort.SearchInts(anchors, target+1) - 1
	if i < 0 {
		return 0
	}
	return anchors[i]
}

// hasAnchorAtOrBefore reports whether some anchored iteration exists at or
// before target. Stealing requires one: re-initializing a mid-replay worker
// is only safe when the catch-up starts from a restored checkpoint (a fresh
// worker may fall back to iteration 0, but a worker carrying state from
// another segment may not).
func hasAnchorAtOrBefore(anchors []int, target int) bool {
	if anchors == nil {
		return true
	}
	return len(anchors) > 0 && anchors[0] <= target
}

// freeBoundary reports whether a segment starting at b pays at most one
// restore of catch-up: b is the loop start, or iteration b-1 is anchored.
func freeBoundary(anchors []int, b int) bool {
	if b <= 0 {
		return true
	}
	if anchors == nil {
		return true
	}
	i := sort.SearchInts(anchors, b-1)
	return i < len(anchors) && anchors[i] == b-1
}

// nearestFree returns the free boundary nearest to want within the open
// interval (lo, hi), preferring the smaller on ties; ok is false when the
// interval contains no free boundary.
func nearestFree(anchors []int, want, lo, hi int) (int, bool) {
	if anchors == nil {
		if want > lo && want < hi {
			return want, true
		}
		return 0, false
	}
	best, found := 0, false
	better := func(b int) {
		if b <= lo || b >= hi {
			return
		}
		if !found || abs(b-want) < abs(best-want) || (abs(b-want) == abs(best-want) && b < best) {
			best, found = b, true
		}
	}
	// Candidate free boundaries are anchors+1; probe the two anchors
	// bracketing want-1.
	i := sort.SearchInts(anchors, want)
	for _, j := range []int{i - 2, i - 1, i, i + 1} {
		if j >= 0 && j < len(anchors) {
			better(anchors[j] + 1)
		}
	}
	return best, found
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---------- partitioners ----------

// PartitionBalanced splits the model's n iterations into at most g
// contiguous segments minimizing the maximum segment work cost: binary
// search on the bottleneck, then a sweep that gives each segment an even
// share of the work still to place — never so little that the rest would no
// longer fit under the bottleneck. Among the optimal partitions that is the
// one with the slack spread over all workers rather than left to the last,
// and on uniform costs it is exactly the paper's ⌈n/G⌉ split, larger segments
// first. Deterministic for a fixed input.
func PartitionBalanced(c *Costs, g int) [][2]int {
	n := c.N()
	if n <= 0 || g <= 0 {
		return nil
	}
	if g > n {
		g = n
	}
	var lo, total int64
	for _, w := range c.WorkNs {
		if w > lo {
			lo = w
		}
		total += w
	}
	// Smallest T such that [0,n) fits in ≤ g segments each of cost ≤ T.
	for hi := total; lo < hi; {
		mid := lo + (hi-lo)/2
		if segmentsNeeded(c.WorkNs, mid) <= g {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// need[i] is the fewest segments of cost ≤ T that cover [i, n): one
	// packed greedily from i up to j, plus need[j]. j only moves left as i
	// does.
	need := make([]int, n+1)
	var sum int64
	for i, j := n-1, n; i >= 0; i-- {
		sum += c.WorkNs[i]
		for sum > lo {
			j--
			sum -= c.WorkNs[j]
		}
		need[i] = 1 + need[j]
	}
	// Cut before i once the segment holds its share of what was left when it
	// began (or cannot take i without outgrowing T), provided the rest still
	// fits in the segments that remain — which, by the time a segment is
	// packed up to T, it always does.
	segs := make([][2]int, 0, g)
	start, left := 0, total
	sum = 0
	for i, w := range c.WorkNs {
		open := int64(g - len(segs)) // segments not yet closed, this one included
		if i > start && (sum >= (left+open-1)/open || sum+w > lo) && int64(need[i]) < open {
			segs = append(segs, [2]int{start, i})
			left -= sum
			start, sum = i, 0
		}
		sum += w
	}
	return append(segs, [2]int{start, n})
}

// segmentsNeeded counts the contiguous segments required to cover work with
// no segment cost exceeding t (single iterations above t count alone).
func segmentsNeeded(work []int64, t int64) int {
	count := 1
	var sum int64
	for i, w := range work {
		if i > 0 && sum+w > t {
			count++
			sum = 0
		}
		sum += w
	}
	return count
}

// SnapToAnchors moves each interior segment boundary to the nearest free
// boundary (a materialized checkpoint's successor), so weak-initialized
// workers start with a single restore instead of a catch-up replay.
// Boundaries with no free boundary nearby stay put; snapping preserves
// contiguity and coverage, and collapsed (empty) segments are dropped.
func SnapToAnchors(segs [][2]int, anchors []int) [][2]int {
	if len(segs) <= 1 || anchors == nil {
		return segs
	}
	n := segs[len(segs)-1][1]
	bounds := make([]int, 0, len(segs)+1)
	bounds = append(bounds, segs[0][0])
	for i := 1; i < len(segs); i++ {
		bounds = append(bounds, segs[i][0])
	}
	bounds = append(bounds, n)
	for i := 1; i < len(bounds)-1; i++ {
		if freeBoundary(anchors, bounds[i]) {
			continue
		}
		// Stay strictly between the previous (already snapped) boundary and
		// the next original one so boundaries remain increasing.
		if b, ok := nearestFree(anchors, bounds[i], bounds[i-1], bounds[i+1]); ok {
			bounds[i] = b
		}
	}
	out := make([][2]int, 0, len(segs))
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] < bounds[i+1] {
			out = append(out, [2]int{bounds[i], bounds[i+1]})
		}
	}
	return out
}

// PartitionBalancedAnchored returns the balanced partition with boundaries
// snapped to checkpoint anchors — but only when the snap does not worsen the
// modeled makespan under the given init mode. With sparse anchors the
// nearest free boundary can be far from the balanced cut (or, under strong
// initialization, buy nothing at all), and an unconditional snap would trade
// away the balance this partitioner exists for.
func PartitionBalancedAnchored(c *Costs, g int, init Init, anchors []int) [][2]int {
	segs := PartitionBalanced(c, g)
	snapped := SnapToAnchors(segs, anchors)
	if c.Makespan(snapped, init, anchors) <= c.Makespan(segs, init, anchors) {
		return snapped
	}
	return segs
}

// splitPoint chooses where to cut the remaining span [next, end) of a lease
// so a thief can take the trailing part: the midpoint of the remainder,
// snapped to the nearest free boundary strictly inside (next, end). ok is
// false when the remainder is too small to share.
func splitPoint(anchors []int, next, end int) (int, bool) {
	rem := end - next
	if rem < 2 {
		return 0, false
	}
	mid := end - rem/2
	if b, ok := nearestFree(anchors, mid, next, end); ok {
		return b, true
	}
	return mid, true
}
