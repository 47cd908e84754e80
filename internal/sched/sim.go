package sched

import "flor.dev/flor/internal/obs"

// SimResult describes one simulated replay in virtual time.
type SimResult struct {
	// MakespanNs is the virtual time at which the last worker finishes.
	MakespanNs int64
	// WorkerNs[w] is worker w's finish time; 0 for a worker that found
	// nothing to claim (it exits before paying setup).
	WorkerNs []int64
	// Steals is the number of leases created by stealing.
	Steals int
}

// Simulate runs a g-worker replay in deterministic virtual time. It drives
// the real Executor — the initial partition replay uses, Claim, Next and
// Steal — under a virtual clock: every worker is charged the modeled cost of
// setup, of initializing to each lease it claims and of each iteration it
// takes, and the worker with the earliest clock (lowest id on ties) acts
// next. The virtual scale-out numbers (Figures 10/13/14) are therefore
// decisions of the scheduler replay actually runs, not of a model of it. All
// workers are ready at time 0: the simulation has no slot budget.
//
// A non-nil tr (obs.NewVirtualTrace) receives one "setup" span per worker
// that claimed work, one "init" + "work" pair per lease and a closing
// "worker" span per worker, stamped with the same virtual nanoseconds the
// makespan accounting uses. Two simulations of the same inputs produce
// byte-identical NDJSON: a diffable record of scheduling decisions.
func Simulate(c *Costs, g int, init Init, anchors []int, tr *obs.Trace) *SimResult {
	res := &SimResult{}
	if g <= 0 {
		return res
	}
	x := NewExecutor(c, PartitionBalancedAnchored(c, g, init, anchors), anchors)

	type worker struct {
		clock     int64
		pos       int    // iteration the worker's state sits at
		lease     *Lease // nil between leases
		workStart int64  // clock when the current lease's work phase began
		started   bool   // claimed a first lease and paid setup
		done      bool
	}
	workers := make([]worker, g)
	stolenAttr := func(l *Lease) int64 {
		if l.Stolen() {
			return 1
		}
		return 0
	}
	for {
		w := -1
		for i := range workers {
			if !workers[i].done && (w < 0 || workers[i].clock < workers[w].clock) {
				w = i
			}
		}
		if w < 0 {
			break
		}
		me := &workers[w]
		if me.lease == nil {
			l := x.Claim(me.pos)
			if l == nil {
				me.done = true
				continue
			}
			// The first lease initializes in the requested mode; any later
			// non-adjacent one re-initializes from the nearest checkpoint.
			mode := Weak
			if !me.started {
				me.started, mode = true, init
				tr.Add(obs.Span{Name: "setup", Worker: w, StartNs: me.clock, DurNs: c.SetupNs})
				me.clock += c.SetupNs
			}
			var initNs int64
			if l.Start() != me.pos {
				initNs = c.InitCostNs(l.Start(), mode, anchors)
			}
			tr.Add(obs.Span{Name: "init", Worker: w, StartNs: me.clock, DurNs: initNs,
				Attrs: map[string]int64{"start": int64(l.Start()), "stolen": stolenAttr(l)}})
			me.clock += initNs
			me.lease, me.workStart = l, me.clock
			continue
		}
		if i, ok := me.lease.Next(); ok {
			me.clock += c.WorkNs[i]
			continue
		}
		// Exhausted: the bounds are final, so the work span can be emitted.
		start, end := me.lease.Bounds()
		tr.Add(obs.Span{Name: "work", Worker: w, StartNs: me.workStart, DurNs: me.clock - me.workStart,
			Attrs: map[string]int64{"start": int64(start), "end": int64(end), "stolen": stolenAttr(me.lease)}})
		me.pos, me.lease = end, nil
	}

	res.Steals = x.Steals()
	res.WorkerNs = make([]int64, g)
	for w := range workers {
		res.WorkerNs[w] = workers[w].clock
		if workers[w].clock > res.MakespanNs {
			res.MakespanNs = workers[w].clock
		}
		if workers[w].started {
			tr.Add(obs.Span{Name: "worker", Worker: w, StartNs: 0, DurNs: workers[w].clock})
		}
	}
	return res
}
