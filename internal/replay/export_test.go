package replay

import "flor.dev/flor/internal/sched"

// Planned returns the cost model and anchors rec's memo holds for programs
// whose instrumented loops are (probedInner) or are not probed: what the
// first Replay or Plan of that kind built, nil before either ran.
func Planned(rec *Recording, probedInner bool) (*sched.Costs, []int) {
	rec.schedMu.Lock()
	defer rec.schedMu.Unlock()
	if rec.sched == nil {
		return nil, nil
	}
	idx := 0
	if probedInner {
		idx = 1
	}
	return rec.sched.costs[idx], rec.sched.anchors
}
