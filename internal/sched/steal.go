package sched

import (
	"sync"

	"flor.dev/flor/internal/obs"
)

// Executor hands main-loop iterations to replay workers as leases. It is
// seeded with an initial partition, one unclaimed Lease (a contiguous,
// shrinkable span of iterations) per segment. Workers are interchangeable:
// whoever is ready calls Claim for a lease, takes iterations from it one by
// one with Next, and calls Claim again when it runs dry — first for initial
// leases nobody has started, then for the trailing part of the lease most
// profitable to split. The claimed-iteration sets of all leases are disjoint
// and together cover exactly [0, n), whatever the interleaving, so replay
// logs merge deterministically in iteration order.
//
// All methods are safe for concurrent use.
type Executor struct {
	mu      sync.Mutex
	costs   *Costs
	anchors []int
	prefix  []int64 // work-cost prefix sums, len n+1
	leases  []*Lease
	steals  int
	// restoreScale, when set, rescales the modeled catch-up cost of a steal's
	// weak re-initialization by the ratio of the measured restore/materialize
	// factor to the prior the cost model was priced with — the mid-replay
	// cost-model feedback loop (paper §5.3.2): early leases observe real
	// restore times, later steal decisions are priced with them.
	restoreScale func() float64
	// workScale is the measured-over-modeled work-cost ratio (EWMA), fed by
	// NoteIterDone as workers finish iterations. It rescales the stolen-work
	// side of steal profitability the same way restoreScale rescales the
	// catch-up side, so both halves of the profit equation are priced with
	// observed, not estimated, costs once real timings exist.
	workScale   float64
	workSamples int
	// onSteal, when set, is notified after a successful steal shrinks a
	// lease: the victim's new end and the stolen span. Prefetchers use it to
	// cancel speculation beyond iterations the victim no longer owns.
	onSteal func(victimEnd, stolenStart, stolenEnd int)

	mStealAttempts *obs.Counter
	mLeaseSplits   *obs.Counter
}

// Lease is one worker's contiguous span of iterations [Start, end). A steal
// shrinks end; Next hands out iterations until it reaches the (current) end.
type Lease struct {
	x       *Executor
	start   int
	next    int
	end     int
	claimed bool // a worker owns it; stolen leases are born claimed
	stolen  bool
}

// NewExecutor builds an executor over the initial partition segs (normally
// PartitionBalancedAnchored). costs drives the split and profitability
// decisions; Uniform(n) is the fallback when no timings exist. An empty
// partition (a zero-iteration main loop) becomes the single empty lease
// [0, 0), so one worker still claims work and runs the program's setup and
// tail.
func NewExecutor(costs *Costs, segs [][2]int, anchors []int) *Executor {
	x := &Executor{
		costs: costs, anchors: anchors, prefix: costs.prefix(),
		mStealAttempts: obs.C(obs.MSchedStealAttempts),
		mLeaseSplits:   obs.C(obs.MSchedLeaseSplits),
	}
	if len(segs) == 0 {
		segs = [][2]int{{0, 0}}
	}
	for _, s := range segs {
		x.leases = append(x.leases, &Lease{x: x, start: s[0], next: s[0], end: s[1]})
	}
	return x
}

// Claim hands the calling worker its next lease, or nil when nothing is left
// for it (the worker should exit; owners finish the leases they hold). pos is
// the iteration the worker's program state sits at: 0 for a worker that has
// executed nothing yet, the end of its previous lease otherwise. In order of
// preference:
//
//  1. the unclaimed initial lease starting at pos — the worker continues with
//     no re-initialization;
//  2. the first other unclaimed initial lease. A worker at pos 0 still holds
//     pristine post-setup state and can initialize to any start; a worker
//     carrying state from another span must re-initialize from a restored
//     checkpoint, so it only takes a lease with an anchor before its start;
//  3. a profitable steal (see Steal).
func (x *Executor) Claim(pos int) *Lease {
	x.mu.Lock()
	var other *Lease
	for _, l := range x.leases {
		if l.claimed {
			continue
		}
		if l.start == pos {
			l.claimed = true
			x.mu.Unlock()
			return l
		}
		if other == nil && (pos == 0 || (l.start > 0 && hasAnchorAtOrBefore(x.anchors, l.start-1))) {
			other = l
		}
	}
	if other != nil {
		other.claimed = true
	}
	x.mu.Unlock()
	if other != nil {
		return other
	}
	l, _ := x.Steal()
	return l
}

// SetRestoreScale installs a callback returning the current catch-up cost
// multiplier (1.0 = trust the prior). Steal profitability multiplies the
// modeled weak re-initialization cost by it, so restore times measured by
// early leases reprice later steals. Call before workers start; the callback
// must be safe for concurrent use and is invoked with the executor lock held.
func (x *Executor) SetRestoreScale(f func() float64) {
	x.mu.Lock()
	x.restoreScale = f
	x.mu.Unlock()
}

// SetOnSteal installs a callback invoked after every successful steal with
// the victim lease's new end and the stolen span [stolenStart, stolenEnd).
// Plan-driven prefetchers hang cancellation off it: speculative fetches for
// iterations past victimEnd now belong to the thief's plan, not the
// victim's. Call before workers start; the callback runs without the
// executor lock held (it may call back into the executor) but never
// concurrently with itself for the same steal.
func (x *Executor) SetOnSteal(f func(victimEnd, stolenStart, stolenEnd int)) {
	x.mu.Lock()
	x.onSteal = f
	x.mu.Unlock()
}

// noteEwmaAlpha smooths the measured work-cost ratio; matches the tracker's
// restore-factor smoothing so both feedback loops converge at the same pace.
const noteEwmaAlpha = 0.3

// NoteIterDone reports one iteration's measured wall time. The executor
// accumulates the ratio of measured time to the cost model's per-iteration
// estimate and prices future steals with it: a model that underestimated the
// real per-iteration work (a restore-heavy replay whose frame tax the
// estimate missed) would otherwise keep approving steals whose catch-up
// outweighs the work actually left. Safe for concurrent use.
func (x *Executor) NoteIterDone(iter int, measuredNs int64) {
	if measuredNs <= 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	modeled := x.workCost(iter, iter+1)
	if modeled <= 0 {
		return
	}
	r := float64(measuredNs) / float64(modeled)
	x.workSamples++
	if x.workSamples == 1 {
		x.workScale = r
		return
	}
	x.workScale = (1-noteEwmaAlpha)*x.workScale + noteEwmaAlpha*r
}

// WorkScale returns the current measured/modeled work-cost ratio (1.0 until
// any iteration was reported).
func (x *Executor) WorkScale() float64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.workSamples == 0 {
		return 1.0
	}
	return x.workScale
}

// Exhausted reports whether every iteration has been handed out: a worker
// that has not claimed yet has nothing to come for.
func (x *Executor) Exhausted() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, l := range x.leases {
		if !l.claimed || l.next < l.end {
			return false
		}
	}
	return true
}

// Steals returns how many leases were created by stealing.
func (x *Executor) Steals() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.steals
}

// workCost returns the modeled work cost of [s, e) via the prefix sums.
func (x *Executor) workCost(s, e int) int64 {
	if s < 0 || e > len(x.prefix)-1 || s >= e {
		return 0
	}
	return x.prefix[e] - x.prefix[s]
}

// Steal cuts the trailing part off the lease whose pending remainder is most
// profitable to share — stolen work cost minus the thief's weak
// re-init catch-up — and returns it as a fresh lease. ok is false when no
// lease has a profitable remainder.
func (x *Executor) Steal() (*Lease, bool) {
	x.mu.Lock()
	x.mStealAttempts.Inc()
	scale := 1.0
	if x.restoreScale != nil {
		if s := x.restoreScale(); s > 0 {
			scale = s
		}
	}
	wscale := 1.0
	if x.workSamples > 0 && x.workScale > 0 {
		wscale = x.workScale
	}
	var best *Lease
	var bestMid int
	var bestProfit int64
	for _, l := range x.leases {
		mid, ok := splitPoint(x.anchors, l.next, l.end)
		if !ok || !hasAnchorAtOrBefore(x.anchors, mid-1) {
			continue
		}
		profit := int64(wscale*float64(x.workCost(mid, l.end))) - int64(scale*float64(x.costs.InitCostNs(mid, Weak, x.anchors)))
		if best == nil || profit > bestProfit {
			best, bestMid, bestProfit = l, mid, profit
		}
	}
	if best == nil || bestProfit <= 0 {
		x.mu.Unlock()
		return nil, false
	}
	stolen := &Lease{x: x, start: bestMid, next: bestMid, end: best.end, claimed: true, stolen: true}
	stolenEnd := best.end
	best.end = bestMid
	x.leases = append(x.leases, stolen)
	x.steals++
	x.mLeaseSplits.Inc()
	onSteal := x.onSteal
	x.mu.Unlock()
	if onSteal != nil {
		onSteal(bestMid, bestMid, stolenEnd)
	}
	return stolen, true
}

// Start returns the first iteration of the lease.
func (l *Lease) Start() int { return l.start }

// Stolen reports whether the lease was cut off another worker's lease rather
// than seeded by the initial partition.
func (l *Lease) Stolen() bool { return l.stolen }

// Next claims the lease's next iteration. ok is false when the lease is
// exhausted — either the worker reached the end or a thief took the rest.
func (l *Lease) Next() (int, bool) {
	l.x.mu.Lock()
	defer l.x.mu.Unlock()
	if l.next >= l.end {
		return 0, false
	}
	i := l.next
	l.next++
	return i, true
}

// Bounds returns the lease's current [start, end). After Next has returned
// false the bounds are final: an empty remainder can no longer be stolen
// from, so end is stable.
func (l *Lease) Bounds() (int, int) {
	l.x.mu.Lock()
	defer l.x.mu.Unlock()
	return l.start, l.end
}

// Horizon returns up to n iterations the lease still owns beyond its claim
// front: [next, min(next+n, end)). This is the worker's committed near-term
// plan — barring a steal, these iterations restore on this worker next —
// which makes it exactly the span a prefetcher should warm. The snapshot is
// advisory: a concurrent steal can shrink end after it returns (the steal
// callback reports the shrink).
func (l *Lease) Horizon(n int) []int {
	l.x.mu.Lock()
	defer l.x.mu.Unlock()
	if n <= 0 || l.next >= l.end {
		return nil
	}
	end := l.next + n
	if end > l.end {
		end = l.end
	}
	out := make([]int, 0, end-l.next)
	for i := l.next; i < end; i++ {
		out = append(out, i)
	}
	return out
}
