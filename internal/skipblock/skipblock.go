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
//
// A bound name is in one of three states: bound, loaded, or viewed. A log
// statement's read of a bound model or tensor whose pull closure is that name
// alone, and whose youngest binding's section the payload cache holds, moves
// nothing: the live value's tensors point at the cached payload's until the
// statement ends, or until something that could write them or load over
// them comes first (view.go). Race builds check that nothing wrote through a
// view.
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
	RestoreNs     int64 // time in loads and views of bound checkpoints
	RestoredBytes int64 // logical payload bytes the loads moved
	Viewed        int   // reads served by a view of a cached payload
	ViewedBytes   int64 // logical payload bytes those views showed in place
}

// Block is the runtime state of one SkipBlock-enclosed loop.
type Block struct {
	Loop      *script.Loop
	Changeset []string // static changeset from analysis (pre-augmentation)
	Probed    bool     // set at replay time from the source diff

	execIndex int // which execution of this loop is next
	stats     Stats

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
	// setup is the binding BindSetup made, while the runtime has one: every
	// name a checkpoint load restores is retired from it (supplied).
	setup *binding
	// layouts keeps, by name, the layout a load laid a section over, for
	// the next load of that name while it still fits the value.
	layouts map[string]*value.Layout
	// views are the running log statement's views, in the order taken;
	// viewErr latches a write through one, for Logged to return.
	views   []viewing
	viewErr error
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
		layouts: map[string]*value.Layout{},
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

// Reset readies a runtime whose program already ran for another query:
// bindings, execution indexes, block counters and fetch totals go, tracker
// replaces the last query's, and cache replaces the runtime's payload cache
// (nil: a private one, as NewRuntime gives). What earlier loads read into
// and laid out stays, to be reused. Set the query's trace and probes after.
func (r *Runtime) Reset(tracker *adapt.Tracker, cache *backmat.PayloadCache) {
	r.unview()
	r.mode, r.tracker, r.fetch, r.viewErr = ModeRecord, tracker, nil, nil
	r.env, r.bound, r.pulling, r.setup = nil, nil, false, nil
	if cache == nil {
		cache = backmat.NewPayloadCache(0)
	}
	r.cache = cache
	for _, b := range r.blocks {
		b.execIndex, b.stats = 0, Stats{}
	}
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
// full, or a reused program's setup state (setup set, b nil). done lists the
// names that no longer come from it: those loaded, those written since the
// bind (a load must not roll a write back) and, for the setup binding, those
// a checkpoint load restored.
type binding struct {
	b     *Block
	key   store.Key
	ck    *store.Checkpoint // resolved by whatever needs it first
	setup *Setup
	done  []string
}

// Setup is a program's state right after its setup statements ran: a
// snapshot of every value setup bound. A program that already served a query
// binds it (BindSetup) to look like a freshly set-up one. Its payloads are
// immutable and every Restore copies out of them, so one Setup serves any
// number of programs of the same setup at once.
type Setup struct {
	names    []string
	payloads []value.Payload
	bytes    int64
}

// SnapshotSetup snapshots the values of f, taken when setup had just
// finished.
func SnapshotSetup(f script.Frame) *Setup {
	s := &Setup{}
	f.Each(func(name string, v value.Value) {
		p := v.Snapshot()
		s.names = append(s.names, name)
		s.payloads = append(s.payloads, p)
		s.bytes += int64(p.SizeBytes())
	})
	return s
}

// Bytes is the snapshot's size.
func (s *Setup) Bytes() int64 { return s.bytes }

// BindSetup binds s as the oldest binding of env, which a reset runtime
// (Reset) of a program whose setup s snapshots observes from here on. A name
// read before any checkpoint supplies it gets its setup value. A name a
// checkpoint load restores, or a later binding carries, is that checkpoint's
// to supply: its setup value never lands over the checkpoint's.
func (r *Runtime) BindSetup(env *script.Env, s *Setup) {
	r.env = env
	env.Observe(r)
	r.setup = &binding{setup: s}
	r.bound = append(r.bound, r.setup)
}

// supplied retires name from the setup binding: a checkpoint load restored
// it, and what a checkpoint restores is younger than setup.
func (r *Runtime) supplied(name string) {
	if r.setup != nil && !slices.Contains(r.setup.done, name) {
		r.setup.done = append(r.setup.done, name)
	}
}

// Read implements script.Observer: a log statement is about to look at name.
func (r *Runtime) Read(name string) error { return r.pull(name) }

// Write implements script.Observer: name is about to be assigned, which ends
// every view and retires name from every bound checkpoint.
func (r *Runtime) Write(name string) {
	r.unview()
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
// to give is dropped. A log statement's read of a model or tensor whose
// closure is the name alone is first offered to a view (view); a pull that
// may load a viewed name ends the views before it loads.
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
		if r.env.Logging() && len(names) == 1 && names[0] == name {
			if viewed, err := r.view(name, v); viewed || err != nil {
				return err
			}
		}
	}
	if r.viewed(names) {
		r.unview()
	}
	var err error
	r.bound = slices.DeleteFunc(r.bound, func(bd *binding) bool {
		more := true // once a load has failed, the rest stay bound
		switch {
		case err != nil:
		case bd.setup != nil:
			more, err = r.loadSetup(bd, names)
		default:
			more, err = bd.b.load(bd, names)
		}
		return !more && err == nil
	})
	return err
}

// loadSetup restores the named part (nil: all) of the setup binding, the
// oldest, and reports whether it has more to give. A name some younger
// binding's checkpoint carries is retired instead: that binding loads after
// this one and overwrites it whole, so the setup payload need not move.
func (r *Runtime) loadSetup(bd *binding, names []string) (more bool, err error) {
	for i, name := range bd.setup.names {
		if slices.Contains(bd.done, name) {
			continue
		}
		if names != nil && !slices.Contains(names, name) {
			more = true
			continue
		}
		carried, err := r.carriedLater(name)
		if err != nil {
			return false, err
		}
		if !carried {
			v, ok := r.env.Get(name)
			if !ok {
				return false, fmt.Errorf("skipblock: setup variable %q missing from environment", name)
			}
			if err := v.Restore(bd.setup.payloads[i]); err != nil {
				return false, fmt.Errorf("skipblock: restore setup %q: %w", name, err)
			}
		}
		bd.done = append(bd.done, name)
	}
	return more, nil
}

// carriedLater reports whether a checkpoint binding carries name. It
// resolves a binding not yet resolved, as its first load would.
func (r *Runtime) carriedLater(name string) (bool, error) {
	for _, bd := range r.bound {
		if bd.setup != nil {
			continue
		}
		if err := r.resolve(bd); err != nil {
			return false, err
		}
		if bd.ck.Carries(name) {
			return true, nil
		}
	}
	return false, nil
}

// resolve looks bd's checkpoint up, once: every load of the binding needs
// it. The lookup touches no file, so whatever span asks first absorbs it.
func (r *Runtime) resolve(bd *binding) error {
	if bd.ck != nil {
		return nil
	}
	ck, err := r.st.Resolve(bd.key)
	if err != nil {
		return fmt.Errorf("skipblock: %s: %w", bd.key, err)
	}
	bd.ck = ck
	return nil
}

// load moves the named part of a bound checkpoint (nil: all that is left of
// it) into the live values — the one place in replay where checkpoint bytes
// reach program state — and reports whether the binding has more to give.
// The wanted sections' chunk frames are read and decoded across the worker
// pool (store.Checkpoint.ReadInto). A section whose live value is a model or
// a tensor is laid over that value (value.LiveLayout), so the read itself is
// the restore: its float blocks land in the live tensors and only its
// structure bytes in scratch, checked against the value's own. Every other
// section — other kinds, a layout whose structure or length does not match,
// memory another laid-out section already covers — lands in a fresh buffer
// and takes the general path: bundle entries decode in parallel into views
// over their buffers (backmat.DecodeSectionsCached) and every value
// overwrites its live state from its view.
func (b *Block) load(bd *binding, names []string) (more bool, err error) {
	rt, key := b.rt, bd.key
	t0 := time.Now()
	spanStart := rt.tr.Now()
	fetchBefore := rt.fetch.Snapshot()
	if err := rt.resolve(bd); err != nil {
		return false, err
	}
	fail := func(err error) (bool, error) { return false, fmt.Errorf("skipblock: %s: %w", key, err) }
	left := func(name string) bool { return !slices.Contains(bd.done, name) }
	want := func(name string) bool { return left(name) && (names == nil || slices.Contains(names, name)) }
	var laid []laidOut
	into := func(name string, rawLen int) [][]byte {
		v, ok := rt.env.Get(name)
		if !ok {
			return nil
		}
		l := rt.layouts[name]
		if l == nil || !l.Fits(v) {
			if l = value.LiveLayout(v); l != nil {
				rt.layouts[name] = l
			}
		}
		if l == nil || l.Len() != rawLen {
			return nil
		}
		for _, o := range laid {
			if !l.Disjoint(o.l) {
				return nil // restored after the read, so still after the earlier section
			}
		}
		laid = append(laid, laidOut{name, v, l})
		return l.Pieces
	}
	secs, err := bd.ck.ReadInto(want, rt.cache.Contains, rt.fetch, into)
	if err != nil {
		return fail(err)
	}
	var wanted []store.Section
	var restoredBytes int64
	loaded := 0
	for i := range secs {
		sec := &secs[i]
		if !want(sec.Name) {
			more = more || left(sec.Name)
			continue
		}
		loaded++
		restoredBytes += int64(sec.RawLen)
		k := slices.IndexFunc(laid, func(o laidOut) bool { return o.name == sec.Name })
		switch {
		case k < 0:
			wanted = append(wanted, *sec)
		case laid[k].l.Matches():
			rt.cache.Offer(sec.Hash, sec.RawLen, laid[k].v)
			bd.done = append(bd.done, sec.Name)
			rt.supplied(sec.Name)
		default: // not the value's structure: what was read takes the general path
			sec.Data = laid[k].l.Bytes()
			wanted = append(wanted, *sec)
		}
	}
	if loaded == 0 {
		return more, nil // the checkpoint has none of names left: not a load
	}
	items, err := backmat.DecodeSectionsCached(rt.cache, wanted)
	if err != nil {
		return fail(err)
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
		rt.supplied(it.Name)
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

// laidOut is a section a load laid over the live value it restores.
type laidOut struct {
	name string
	v    value.Value
	l    *value.Layout
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
