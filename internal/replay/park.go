package replay

import (
	"sync"

	"flor.dev/flor/internal/analyze"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/skipblock"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
)

// Park keeps the program instances of finished queries over one recording
// and one probed program, so that the next query's workers take one instead
// of building the program and running its setup again (§5.4.2's "first
// part": imports, data loading, model construction). Building a fresh
// program stays the miss path.
//
// A parked program is reused exactly as if it were fresh: its environment
// goes back to the objects setup bound, its SkipBlock runtime forgets the
// last query (skipblock.Runtime.Reset), and the park's one post-setup
// snapshot is bound as its oldest binding (skipblock.Runtime.BindSetup), so
// a name read before any checkpoint supplies it has its setup value.
//
// What a park holds is paid for from a byte budget it shares with a payload
// cache: the parked values' SizeBytes plus the snapshot are reserved from it
// while parked and returned when a program is taken or the park is closed.
// When the snapshot and one program do not fit, nothing is snapshotted and
// nothing parks. Only a query that succeeds parks its programs, and a
// program is never shared between concurrent queries, so a park holds at
// most as many programs as its queries held worker slots at once. A
// program the park does not keep — its query failed, or the budget or the
// analysis refuses it — gives its recycled buffers back (release), and so
// do the programs a closing park held.
//
// The snapshot covers what the program's values hold, not what lies outside
// them: an Opaque's internals, what the program's closures captured, a
// model's gradient buffers. These stay as the last query left them. That is
// fresh enough only where nothing after setup changes them, which the
// side-effect analysis vouches for when it bounds every statement that runs
// after setup (bounded); a program it does not bound never parks.
type Park struct {
	rec    *Recording
	budget *backmat.PayloadCache

	mu        sync.Mutex
	setup     *skipblock.Setup // taken from the first fresh setup that fit the budget
	progs     []*program
	held      int64 // reserved from budget: the snapshot plus every parked program
	need      int64 // the snapshot plus one program, once measured
	unbounded bool  // the analysis does not bound the program: nothing parks
	closed    bool
}

// NewPark returns an empty park for queries over rec, reserving what it
// holds from budget (nil: nothing ever parks). One park serves one probed
// program: every query handed it must build its programs with the same
// factory.
func NewPark(rec *Recording, budget *backmat.PayloadCache) *Park {
	return &Park{rec: rec, budget: budget}
}

// Close empties the park, gives back the recycled buffers of the programs
// it held and returns its reservation to the budget; programs offered after
// it are released, not parked. A serving daemon closes a store entry's parks
// when it evicts the entry.
func (k *Park) Close() {
	k.mu.Lock()
	defer k.mu.Unlock()
	release(k.progs)
	k.budget.Release(k.held)
	k.setup, k.progs, k.held, k.closed = nil, nil, 0, true
}

// Len reports how many programs are parked.
func (k *Park) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.progs)
}

// program is one instance of the probed program with its SkipBlock runtime
// and environment, plus what reuse needs: which objects setup bound (when
// the park admitted it), and, while parked, the bytes they hold; and the
// pending tensors its setup made, whose buffers go back to tensor's pools
// when the program is dropped.
type program struct {
	p        *script.Program
	rt       *skipblock.Runtime
	env      *script.Env
	setup    script.Frame
	parkable bool
	bytes    int64
	claims   *tensor.Claims
}

// claimTensors returns the claims of a program whose setup just ran in env:
// the pending tensors of its models and tensor values that were born after
// c was made, which is before setup started (tensor.Claims). A tensor the
// factory made, or one held by another program, is not claimed; nor is one
// setup drew or overwrote.
func claimTensors(c *tensor.Claims, env *script.Env) *tensor.Claims {
	env.Frame().Each(func(_ string, v value.Value) {
		switch b := v.(type) {
		case *value.Model:
			for _, p := range b.M.Params() {
				c.Claim(p.Var.Value)
			}
		case *value.Tensor:
			c.Claim(b.T)
		}
	})
	return c
}

// release gives back the recycled buffers of programs nobody keeps (see
// tensor.Release): their tensors must not be touched again.
func release(progs []*program) {
	for _, prog := range progs {
		if prog.claims != nil {
			tensor.Release(prog.claims)
			prog.claims = nil
		}
	}
}

// valueBytes is what the values each walks hold, by their own estimate.
func valueBytes(each func(func(string, value.Value))) int64 {
	var n int64
	each(func(_ string, v value.Value) { n += int64(v.SizeBytes()) })
	return n
}

// take removes the most recently parked program, returning it with the
// snapshot its reuse binds; nil when the park is empty.
func (k *Park) take() (*program, *skipblock.Setup) {
	if k == nil {
		return nil, nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.progs)
	if n == 0 {
		return nil, nil
	}
	prog := k.progs[n-1]
	k.progs[n-1] = nil
	k.progs = k.progs[:n-1]
	k.held -= prog.bytes
	k.budget.Release(prog.bytes)
	return prog, k.setup
}

// admit decides whether program p, whose setup just ran in env, may park
// once its query succeeds, and returns the frame its reuse resets env to.
// It may when the park has its snapshot, or takes it from env now. The
// snapshot is taken only when the analysis bounds p (bounded) and the
// snapshot fits the budget next to one program's bytes; otherwise neither
// the copy nor anything else a parked program needs is made. Once those
// bytes are measured, a budget too small for them is refused without
// looking at env.
func (k *Park) admit(p *script.Program, env *script.Env) (script.Frame, bool) {
	if k == nil {
		return script.Frame{}, false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed || k.unbounded {
		return script.Frame{}, false
	}
	if k.setup != nil {
		return env.Frame(), true
	}
	st := k.budget.Stats()
	free := st.CapBytes - st.SizeBytes - st.ParkedBytes
	if k.need > free {
		return script.Frame{}, false
	}
	if !bounded(p) {
		k.unbounded = true
		return script.Frame{}, false
	}
	f := env.Frame()
	if k.need = 2 * valueBytes(f.Each); k.need > free {
		return script.Frame{}, false
	}
	s := skipblock.SnapshotSetup(f)
	if !k.budget.Reserve(s.Bytes()) {
		return script.Frame{}, false
	}
	k.setup, k.held = s, k.held+s.Bytes()
	return f, true
}

// bounded reports whether the side-effect analysis bounds every statement
// p runs after setup: its main loop and every tail loop, and so every loop
// nested in them, are memoizable, and no other tail statement is a
// side-effecting function call. A loop the analysis refuses is re-executed
// from whatever state it meets, so state outside the program's values that
// it changes would carry from one query into the next.
func bounded(p *script.Program) bool {
	if !analyze.AnalyzeLoop(p, p.Main).Memoizable {
		return false
	}
	for _, s := range p.Tail {
		switch {
		case s.IsLog:
		case s.Loop != nil:
			if !analyze.AnalyzeLoop(p, s.Loop).Memoizable {
				return false
			}
		case analyze.Classify(s.Pat, func(string) bool { return false }) == analyze.Rule5:
			return false
		}
	}
	return true
}

// put parks the admitted programs of a query that succeeded, as many as the
// budget takes, and returns the ones it does not keep. A program's bytes are
// counted now, not at setup: the loop may have grown its state (an
// optimizer's moments appear with the first step).
func (k *Park) put(progs []*program) (rest []*program) {
	if k == nil {
		return progs
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed || k.setup == nil {
		return progs
	}
	for i, prog := range progs {
		if !prog.parkable {
			rest = append(rest, prog)
			continue
		}
		prog.bytes = valueBytes(prog.setup.Each)
		if !k.budget.Reserve(prog.bytes) {
			return append(rest, progs[i:]...)
		}
		k.progs = append(k.progs, prog)
		k.held += prog.bytes
	}
	return rest
}
