// Package skipblock implements the SkipBlock language construct (paper
// §4.2): parameterized branching, side-effect memoization, and side-effect
// restoration for loops.
//
// A SkipBlock always applies the side-effects of its enclosed loop to the
// program state, in one of two ways: by executing the loop, or by skipping
// it and taking the memoized side-effects from its Loop End Checkpoint.
// Which branch runs is parameterized by the execution state Flor is in:
//
//	ModeRecord      execute, then (subject to the adaptive-checkpointing
//	                Joint Invariant) materialize the Loop End Checkpoint
//	ModeReplayInit  skip: take side-effects from the checkpoint
//	                (re-execute only if the checkpoint was never
//	                materialized — the sparse-checkpoint fallback)
//	ModeReplayExec  skip unless the loop is probed by a hindsight log
//	                statement, in which case re-execute to produce the logs
//
// A skip binds the checkpoint rather than loading it: the runtime observes
// the environment (script.Observer) and moves bytes only when something is
// about to look — a log statement's read loads that name and what it may
// alias, any other statement loads everything bound, an assignment retires
// its name, loads run in bind order, and a later skip of the same loop
// supersedes whatever of the earlier one nobody read (docs/ARCHITECTURE.md
// has the soundness argument).
package skipblock

import (
	"fmt"
	"slices"
	"time"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/analyze"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/value"
)

// Mode is the execution state a SkipBlock runtime is in.
type Mode int

// The paper's SkipBlock parameterizations: record execution, replay
// initialization, replay execution.
const (
	ModeRecord Mode = iota
	ModeReplayInit
	ModeReplayExec
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeRecord:
		return "record"
	case ModeReplayInit:
		return "replay-init"
	case ModeReplayExec:
		return "replay-exec"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Stats counts what a SkipBlock did over a run.
type Stats struct {
	Executed      int // loop ran logically
	Restored      int // loop skipped, its checkpoint bound in its place
	Materialized  int // checkpoints handed to the materializer
	ComputNs      int64
	RestoreNs     int64 // time in loads of bound checkpoints
	RestoredBytes int64 // logical payload bytes those loads moved
}

// Block is the runtime state of one SkipBlock-enclosed loop.
type Block struct {
	Loop      *script.Loop
	Changeset []string // static changeset from analysis (pre-augmentation)
	Probed    bool     // set at replay time from the source diff

	execIndex int // which execution of this loop is next
	stats     Stats
	// bufs is what the block's loads have read, section by section, kept so
	// the next load of a section reads into the same buffer: every execution
	// of a loop checkpoints the same names at the same sizes. They are this
	// block's alone — a Runtime runs on one goroutine, each load is done with
	// the payloads viewing them before it returns, and a buffer a shared
	// payload cache admitted has been taken out (backmat.DecodeSectionsCached).
	bufs []store.Section

	rt *Runtime
}

// ExecIndex returns the next execution number for this block's loop.
func (b *Block) ExecIndex() int { return b.execIndex }

// SetExecIndex positions the block at execution n; the replay generator uses
// this to jump workers to their segment start.
func (b *Block) SetExecIndex(n int) { b.execIndex = n }

// Stats returns a copy of the block's counters.
func (b *Block) Stats() Stats { return b.stats }

// Runtime manages all SkipBlocks of one program run and provides the loop
// hook that the script executor calls for every nested loop.
type Runtime struct {
	mode    Mode
	blocks  map[string]*Block
	tracker *adapt.Tracker
	mat     *backmat.Materializer
	st      *store.Store
	// cache memoizes decoded section payloads across restores: replay loads
	// largely identical state every epoch, so repeated content (frozen
	// layers, datasets) decodes once per run instead of once per restore.
	cache *backmat.PayloadCache
	// tr/worker/fetch: optional query-trace plumbing. When a trace is set,
	// every load emits a "restore" span attributing its bytes to the
	// store fetch tier that served them; fetch accumulates the worker's
	// per-tier totals for the query-cost summary.
	tr     *obs.Trace
	worker int
	fetch  *store.FetchStats
	// env is the environment observed once a loop has been skipped in it;
	// bound holds, in bind order, the skipped executions not yet loaded in
	// full; pulling marks the runtime's own lookups, which are not the program's.
	env     *script.Env
	bound   []*binding
	pulling bool
}

// NewRuntime instruments a program's nested loops: every loop (other than
// the main loop) whose side-effect analysis is memoizable gets a SkipBlock.
// Refused loops are left intact, to be fully re-executed (paper §5.2.1).
func NewRuntime(p *script.Program, tracker *adapt.Tracker, mat *backmat.Materializer, st *store.Store) *Runtime {
	rt := &Runtime{
		mode:    ModeRecord,
		blocks:  map[string]*Block{},
		tracker: tracker,
		mat:     mat,
		st:      st,
		cache:   backmat.NewPayloadCache(0),
	}
	for _, l := range p.Loops() {
		if p.Main != nil && l.ID == p.Main.ID {
			continue // the main loop is handled by the generator, not a SkipBlock
		}
		a := analyze.AnalyzeLoop(p, l)
		if !a.Memoizable {
			continue
		}
		rt.blocks[l.ID] = &Block{Loop: l, Changeset: a.Changeset, rt: rt}
	}
	return rt
}

// SetMode switches every SkipBlock's parameterized branch (paper Figure 9,
// lines 3-4 and 7: the generator updates SkipBlock state between the init
// and work segments).
func (r *Runtime) SetMode(m Mode) { r.mode = m }

// SetCache replaces the runtime's private payload cache with a shared one.
// A serving daemon shares one cache per run store across every query's
// workers — and, for runs attached to a shared chunk pool, one cache per
// *pool*, so content decoded for one sibling run's replay (the family's
// frozen backbone) is served from memory to every other sibling's. The
// cache key is content identity, which is pool-wide by construction. It
// holds only sections some load asked for: content no statement reads is
// never decoded, so never admitted.
// (PayloadCache is safe for concurrent use, and cached payloads are
// immutable by contract.) Call before execution starts; a nil cache is
// ignored.
func (r *Runtime) SetCache(c *backmat.PayloadCache) {
	if c != nil {
		r.cache = c
	}
}

// SetTrace attaches a query trace to the runtime: subsequent loads emit
// tier-attributed "restore" spans under the given worker id, and per-tier
// fetch totals accumulate for FetchSnapshot. A nil trace disables both (the
// default — record-mode runtimes stay unobserved).
func (r *Runtime) SetTrace(tr *obs.Trace, worker int) {
	r.tr, r.worker = tr, worker
	if tr != nil && r.fetch == nil {
		r.fetch = &store.FetchStats{}
	}
}

// FetchSnapshot returns the runtime's accumulated per-tier fetch totals
// (zero when no trace was attached).
func (r *Runtime) FetchSnapshot() store.FetchSnapshot { return r.fetch.Snapshot() }

// Mode returns the current mode.
func (r *Runtime) Mode() Mode { return r.mode }

// Block returns the SkipBlock for a loop ID, if the loop was instrumented.
func (r *Runtime) Block(id string) (*Block, bool) {
	b, ok := r.blocks[id]
	return b, ok
}

// Blocks returns all instrumented loop IDs.
func (r *Runtime) Blocks() []string {
	out := make([]string, 0, len(r.blocks))
	for id := range r.blocks {
		out = append(out, id)
	}
	return out
}

// SetProbes marks the probed loops from a hindsight source diff.
func (r *Runtime) SetProbes(probes map[string]bool) {
	for id, b := range r.blocks {
		b.Probed = probes[id]
	}
}

// Hook is the script.Ctx.LoopHook adapter.
func (r *Runtime) Hook(ctx *script.Ctx, l *script.Loop) (bool, error) {
	b, ok := r.blocks[l.ID]
	if !ok {
		return false, nil // uninstrumented loop: execute logically
	}
	return true, b.Apply(ctx)
}

// Apply applies the loop's side-effects to the program state according to
// the current mode (the SkipBlock's parameterized branching).
func (b *Block) Apply(ctx *script.Ctx) error {
	switch b.rt.mode {
	case ModeRecord:
		return b.recordExec(ctx)
	case ModeReplayInit:
		return b.replay(ctx, false)
	case ModeReplayExec:
		return b.replay(ctx, b.Probed)
	default:
		return fmt.Errorf("skipblock: unknown mode %v", b.rt.mode)
	}
}

// recordExec executes the loop, then decides whether to memoize it.
func (b *Block) recordExec(ctx *script.Ctx) error {
	exec := b.execIndex
	b.execIndex++

	t0 := time.Now()
	if err := b.execute(ctx); err != nil {
		return err
	}
	computNs := time.Since(t0).Nanoseconds()
	b.stats.ComputNs += computNs

	// The Joint Invariant test happens after execution, before
	// materialization (paper §5.3.3).
	b.rt.tracker.NoteExecution(b.Loop.ID, computNs)
	vals, size, err := b.resolveChangeset(ctx)
	if err != nil {
		return err
	}
	if !b.rt.tracker.ShouldMaterialize(b.Loop.ID, size) {
		return nil
	}
	b.rt.mat.Materialize(store.Key{LoopID: b.Loop.ID, Exec: exec}, vals, computNs)
	b.stats.Materialized++
	return nil
}

// replay skips the loop by binding its Loop End Checkpoint, unless it must
// run: replay-execution mode re-executes a probed loop (the hindsight log
// statements inside it must produce their lines), and either mode re-executes
// an execution that was never materialized (sparse/periodic checkpointing),
// which is always correct.
func (b *Block) replay(ctx *script.Ctx, probed bool) error {
	key := store.Key{LoopID: b.Loop.ID, Exec: b.execIndex}
	b.execIndex++
	if probed || !b.rt.st.Has(key) {
		t0 := time.Now()
		if err := b.execute(ctx); err != nil {
			return err
		}
		b.stats.ComputNs += time.Since(t0).Nanoseconds()
		return nil
	}
	b.bind(ctx.Env, key)
	return nil
}

// execute runs the loop logically (and advances nested SkipBlock execution
// counters implicitly, since their hooks fire).
func (b *Block) execute(ctx *script.Ctx) error {
	b.stats.Executed++
	return script.ExecLoop(ctx, b.Loop)
}

// bind skips an execution of the loop: from here on the names its Loop End
// Checkpoint carries come from key, and none of its bytes move until
// something needs them (see pull). A binding of the same loop that is still
// waiting is superseded — every execution of a loop checkpoints the same
// names, so whatever of it went unread will now never be read.
func (b *Block) bind(env *script.Env, key store.Key) {
	rt := b.rt
	if rt.env != env {
		rt.env = env
		env.Observe(rt)
	}
	rt.bound = slices.DeleteFunc(rt.bound, func(bd *binding) bool { return bd.b == b })
	rt.bound = append(rt.bound, &binding{b: b, key: key})
	b.stats.Restored++
	// Skipping the loop means nested SkipBlocks never saw their executions;
	// keep their counters aligned.
	rt.advanceNested(b.Loop, 1)
}

// binding is a skipped execution whose checkpoint has not been loaded in
// full. done lists the names that no longer come from it: those loaded, and
// those written since the bind (a load must not roll a write back).
type binding struct {
	b    *Block
	key  store.Key
	ck   *store.Checkpoint // resolved by the first load
	done []string
}

// Read implements script.Observer: a log statement is about to look at name.
func (r *Runtime) Read(name string) error { return r.pull(name) }

// Write implements script.Observer: name is about to be assigned, which
// retires it from every bound checkpoint.
func (r *Runtime) Write(name string) {
	for _, bd := range r.bound {
		if !slices.Contains(bd.done, name) {
			bd.done = append(bd.done, name)
		}
	}
}

// Sync implements script.Observer: an ordinary statement is about to run, and
// its closure may reach any state.
func (r *Runtime) Sync() error { return r.pull("") }

// pull loads what is bound of name and of what name may alias — the closure
// the record side checkpoints with it (analyze.Augment: an optimizer reaches
// its model, a scheduler its optimizer), everything for an Opaque — or, for
// "", everything. Bindings load oldest first: two loops may checkpoint one
// name, and the younger's state must land last. A binding with nothing left
// to give is dropped.
func (r *Runtime) pull(name string) error {
	if len(r.bound) == 0 || r.pulling {
		return nil
	}
	r.pulling = true // the lookups below and the loads' own are not the program's
	defer func() { r.pulling = false }()
	var names []string // nil: every name
	if name != "" {
		v, ok := r.env.Get(name)
		if !ok {
			return nil
		}
		if _, opaque := v.(*value.Opaque); !opaque {
			names = analyze.Augment([]string{name}, r.env)
		}
	}
	var err error
	r.bound = slices.DeleteFunc(r.bound, func(bd *binding) bool {
		more := true // once a load has failed, the rest stay bound
		if err == nil {
			more, err = bd.b.load(bd, names)
		}
		return !more && err == nil
	})
	return err
}

// load moves the named part of a bound checkpoint (nil: all that is left of
// it) into the live values — the one place in replay where checkpoint bytes
// reach program state — and reports whether the binding has more to give.
// Format-v2 checkpoints load through the parallel path: the wanted sections'
// chunk frames are read and decoded across the worker pool into the block's
// own section buffers (store.Checkpoint.ReadInto), bundle entries decode in
// parallel into views over them (backmat.DecodeSectionsCached), and every
// value overwrites its live state from its view — in steady state a load
// allocates nothing proportional to the checkpoint. Format-v1 and opaque
// checkpoints fall back to the monolithic decode of the whole checkpoint.
func (b *Block) load(bd *binding, names []string) (more bool, err error) {
	rt, key := b.rt, bd.key
	t0 := time.Now()
	spanStart := rt.tr.Now()
	fetchBefore := rt.fetch.Snapshot()
	fail := func(err error) (bool, error) { return false, fmt.Errorf("skipblock: %s: %w", key, err) }
	if bd.ck == nil {
		if bd.ck, err = rt.st.Resolve(key); err != nil {
			return fail(err)
		}
	}
	var items []backmat.NamedPayload
	var restoredBytes int64
	if bd.ck.Sectioned() {
		left := func(name string) bool { return !slices.Contains(bd.done, name) }
		want := func(name string) bool { return left(name) && (names == nil || slices.Contains(names, name)) }
		secs, err := bd.ck.ReadInto(want, rt.cache.Contains, rt.fetch, b.bufs)
		if err != nil {
			return fail(err)
		}
		b.bufs = secs
		var wanted []store.Section
		for i := range secs {
			if want(secs[i].Name) {
				wanted = append(wanted, secs[i])
				restoredBytes += int64(secs[i].RawLen)
			} else if left(secs[i].Name) {
				more = true
			}
		}
		if len(wanted) == 0 {
			return more, nil // the checkpoint has none of names left: not a load
		}
		if items, err = backmat.DecodeSectionsCached(rt.cache, wanted); err != nil {
			return fail(err)
		}
		for i, j := 0, 0; i < len(secs); i++ {
			if want(secs[i].Name) {
				secs[i].Data = wanted[j].Data // nil where the cache took the buffer over
				j++
			}
		}
	} else {
		raw, err := rt.st.Get(key)
		if err != nil {
			return fail(err)
		}
		restoredBytes = int64(len(raw))
		if items, err = backmat.DecodeBundle(raw); err != nil {
			return fail(err)
		}
		items = slices.DeleteFunc(items, func(it backmat.NamedPayload) bool { return slices.Contains(bd.done, it.Name) })
	}
	for _, it := range items {
		v, ok := rt.env.Get(it.Name)
		if !ok {
			return fail(fmt.Errorf("checkpointed variable %q missing from environment (setup must define it)", it.Name))
		}
		if err := v.Restore(it.Payload); err != nil {
			return fail(fmt.Errorf("restore %q: %w", it.Name, err))
		}
		bd.done = append(bd.done, it.Name)
	}
	restoreNs := time.Since(t0).Nanoseconds()
	b.stats.RestoreNs += restoreNs
	b.stats.RestoredBytes += restoredBytes
	if rt.tr != nil {
		attrs := map[string]int64{"exec": int64(key.Exec), "restored_bytes": restoredBytes}
		rt.fetch.Snapshot().Sub(fetchBefore).Each(func(tier string, bytes, frames int64) {
			attrs[tier+"_bytes"], attrs[tier+"_frames"] = bytes, frames
		})
		rt.tr.Add(obs.Span{Name: "restore", Worker: rt.worker, StartNs: spanStart, DurNs: restoreNs, Attrs: attrs})
	}
	if meta, ok := rt.st.Lookup(key); ok {
		rt.tracker.NoteRestoreLoop(b.Loop.ID, restoreNs, meta.MaterNs)
	}
	return more, nil
}

// resolveChangeset augments the static changeset at runtime (optimizer →
// model, scheduler → optimizer; paper §5.2.1) and resolves it against the
// environment.
func (b *Block) resolveChangeset(ctx *script.Ctx) ([]backmat.NamedValue, int, error) {
	names := analyze.Augment(b.Changeset, ctx.Env)
	vals := make([]backmat.NamedValue, 0, len(names))
	size := 0
	for _, n := range names {
		v, ok := ctx.Env.Get(n)
		if !ok {
			return nil, 0, fmt.Errorf("skipblock: %s: changeset variable %q not defined at loop end", b.Loop.ID, n)
		}
		vals = append(vals, backmat.NamedValue{Name: n, V: v})
		size += v.SizeBytes()
	}
	return vals, size, nil
}

// advanceNested advances the execution counters of SkipBlocks nested inside
// loop l by the number of executions they would have performed during
// `times` executions of l.
func (r *Runtime) advanceNested(l *script.Loop, times int) {
	var walk func(body []script.Stmt, mult int)
	walk = func(body []script.Stmt, mult int) {
		for i := range body {
			if nested := body[i].Loop; nested != nil {
				if nb, ok := r.blocks[nested.ID]; ok {
					nb.execIndex += times * mult
				}
				walk(nested.Body, mult*nested.Iters)
			}
		}
	}
	walk(l.Body, l.Iters)
}

// ExecsPerMainIteration returns how many times the loop with the given ID
// executes during one iteration of the main loop; the replay generator uses
// it to position workers. It returns 0 when the loop is not found under the
// main loop.
func ExecsPerMainIteration(p *script.Program, loopID string) int {
	if p.Main == nil {
		return 0
	}
	var walk func(body []script.Stmt, mult int) int
	walk = func(body []script.Stmt, mult int) int {
		for i := range body {
			if nested := body[i].Loop; nested != nil {
				if nested.ID == loopID {
					return mult
				}
				if got := walk(nested.Body, mult*nested.Iters); got > 0 {
					return got
				}
			}
		}
		return 0
	}
	return walk(p.Main.Body, 1)
}
