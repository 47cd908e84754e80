// Package script defines the training-program intermediate representation
// that stands in for Python source code in this reproduction.
//
// Flor's analyses never interpret Python semantics: they operate on
// (a) statement *patterns* — the shapes of Table 1 (assignments, method
// calls, function calls), (b) loop structure, and (c) the position of log
// statements. The IR exposes exactly those three things. Every statement
// carries a Pattern for static analysis plus a Go closure for its actual
// effect on the environment; loops carry stable IDs; log statements are the
// probe points of hindsight logging.
//
// A Program's structure (not its closures) can be serialized; record stores
// it as "a copy of the code" (paper §3.1) and replay diffs it against the
// new version to locate probes (§3.2).
package script

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"flor.dev/flor/internal/value"
)

// Env is a program environment: an ordered map from variable names to live
// values. Order is insertion order, kept deterministic for checkpoint
// encoding and tests.
type Env struct {
	vars  map[string]value.Value
	order []string
	// obs, when set, hears of every access by name; err latches the first
	// failure it reports from a read, which has no error return of its own.
	// logging is set while a log statement's expression is evaluated.
	obs     Observer
	err     error
	logging bool
}

// Observer is told of an environment's accesses before they happen. Its one
// implementation is the SkipBlock runtime, which in replay leaves a skipped
// loop's checkpointed state on disk until something is about to look at it.
type Observer interface {
	// Read precedes every lookup of name.
	Read(name string) error
	// Write precedes every bind of, and every in-place assignment to, name.
	Write(name string)
	// Sync precedes every ordinary statement: its closure may reach any state
	// through Go pointers the environment never sees.
	Sync() error
	// Logged follows every evaluated log statement, failed or not: what the
	// statement's reads set up for it alone ends here. An error fails the
	// statement.
	Logged() error
}

// Observe attaches o to the environment (nil detaches).
func (e *Env) Observe(o Observer) { e.obs = o }

// Logging reports whether a log statement's expression is being evaluated:
// a read now is an observer's, which may not write what it reads.
func (e *Env) Logging() bool { return e.logging }

func (e *Env) read(name string) {
	if e.obs == nil {
		return
	}
	if err := e.obs.Read(name); err != nil && e.err == nil {
		e.err = err
	}
}

func (e *Env) write(name string) {
	if e.obs != nil {
		e.obs.Write(name)
	}
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{vars: map[string]value.Value{}}
}

// Set binds name to v, preserving first-bind order.
func (e *Env) Set(name string, v value.Value) {
	e.write(name)
	if _, ok := e.vars[name]; !ok {
		e.order = append(e.order, name)
	}
	e.vars[name] = v
}

// Get returns the value bound to name.
func (e *Env) Get(name string) (value.Value, bool) {
	e.read(name)
	v, ok := e.vars[name]
	return v, ok
}

// MustGet returns the value bound to name, panicking on absence (programs
// reference variables they defined; absence is a program bug).
func (e *Env) MustGet(name string) value.Value {
	e.read(name)
	v, ok := e.vars[name]
	if !ok {
		panic(fmt.Sprintf("script: undefined variable %q", name))
	}
	return v
}

// Int returns the int value bound to name.
func (e *Env) Int(name string) int {
	return e.MustGet(name).(*value.Int).V
}

// SetInt binds name to an integer, reusing the existing box when present.
func (e *Env) SetInt(name string, v int) {
	if b, ok := e.vars[name].(*value.Int); ok {
		e.write(name)
		b.V = v
		return
	}
	e.Set(name, &value.Int{V: v})
}

// Float returns the float value bound to name.
func (e *Env) Float(name string) float64 {
	return e.MustGet(name).(*value.Float).V
}

// SetFloat binds name to a float, reusing the existing box when present.
func (e *Env) SetFloat(name string, v float64) {
	if b, ok := e.vars[name].(*value.Float); ok {
		e.write(name)
		b.V = v
		return
	}
	e.Set(name, &value.Float{V: v})
}

// Names returns all bound names in first-bind order.
func (e *Env) Names() []string {
	out := make([]string, len(e.order))
	copy(out, e.order)
	return out
}

// Frame is a saved name→object map of an environment (Env.Frame), which
// Env.Reset returns the environment to.
type Frame struct {
	vars  map[string]value.Value
	order []string
}

// Frame returns which object each name is bound to now. The objects are
// shared, not copied: a Reset rebinds them, whatever state they hold.
func (e *Env) Frame() Frame {
	return Frame{vars: maps.Clone(e.vars), order: slices.Clone(e.order)}
}

// Reset binds exactly f's names to f's objects — a name bound since f was
// taken goes away — detaches the observer and forgets a latched read failure.
func (e *Env) Reset(f Frame) {
	clear(e.vars)
	maps.Copy(e.vars, f.vars)
	e.order = append(e.order[:0], f.order...)
	e.obs, e.err, e.logging = nil, nil, false
}

// Each calls fn for every name of the frame, in first-bind order.
func (f Frame) Each(fn func(name string, v value.Value)) {
	for _, name := range f.order {
		fn(name, f.vars[name])
	}
}

// Pattern is the statically visible shape of a statement, mirroring the
// paper's Table 1 templates.
type Pattern struct {
	Targets  []string // assignment targets v1..vn (empty for expression statements)
	Receiver string   // obj for obj.method(...) forms; empty otherwise
	Func     string   // function or method name; empty for pure assignments
	Args     []string // argument variable names (for rendering and tests)
	IsCall   bool     // whether the right-hand side is a call
}

// Stmt is one program statement. Exactly one of the following is set:
// a Pattern with Do (ordinary statement), a LogLabel with EvalLog (log
// statement), or a Loop (nested loop).
type Stmt struct {
	Pat     Pattern
	Do      func(env *Env) error
	IsLog   bool
	Label   string // log label; log identity for source diffing
	EvalLog func(env *Env) (string, error)
	Loop    *Loop
}

// Loop is a counted loop with a stable static identifier.
type Loop struct {
	ID      string
	IterVar string
	Iters   int
	Body    []Stmt
}

// Program is a training script: setup, one main loop, and a tail.
type Program struct {
	Name  string
	Setup []Stmt
	Main  *Loop
	Tail  []Stmt
}

// ---------- statement constructors ----------

// AssignMethod builds "t1,...,tn = recv.fn(args...)" (Table 1, rule 1).
func AssignMethod(targets []string, recv, fn string, args []string, do func(*Env) error) Stmt {
	return Stmt{Pat: Pattern{Targets: targets, Receiver: recv, Func: fn, Args: args, IsCall: true}, Do: do}
}

// AssignFunc builds "t1,...,tn = fn(args...)" (Table 1, rule 2).
func AssignFunc(targets []string, fn string, args []string, do func(*Env) error) Stmt {
	return Stmt{Pat: Pattern{Targets: targets, Func: fn, Args: args, IsCall: true}, Do: do}
}

// AssignExpr builds "t1,...,tn = <expr>" (Table 1, rule 3).
func AssignExpr(targets []string, args []string, do func(*Env) error) Stmt {
	return Stmt{Pat: Pattern{Targets: targets, Args: args}, Do: do}
}

// ExprMethod builds "recv.fn(args...)" (Table 1, rule 4).
func ExprMethod(recv, fn string, args []string, do func(*Env) error) Stmt {
	return Stmt{Pat: Pattern{Receiver: recv, Func: fn, Args: args, IsCall: true}, Do: do}
}

// ExprFunc builds "fn(args...)" (Table 1, rule 5 — side-effects beyond
// analysis scope; a loop containing one is never instrumented).
func ExprFunc(fn string, args []string, do func(*Env) error) Stmt {
	return Stmt{Pat: Pattern{Func: fn, Args: args, IsCall: true}, Do: do}
}

// LogStmt builds a log statement: a side-effect-free expression whose result
// is appended to the run log. Adding one to a recorded program in hindsight
// is a probe.
func LogStmt(label string, eval func(*Env) (string, error)) Stmt {
	return Stmt{IsLog: true, Label: label, EvalLog: eval}
}

// LoopStmt embeds a nested loop.
func LoopStmt(l *Loop) Stmt { return Stmt{Loop: l} }

// Render returns the statement's canonical one-line source form; used for
// program structure serialization and diffing.
func (s *Stmt) Render() string {
	switch {
	case s.IsLog:
		return "log " + s.Label
	case s.Loop != nil:
		return fmt.Sprintf("loop %s %s:%d", s.Loop.ID, s.Loop.IterVar, s.Loop.Iters)
	default:
		var b strings.Builder
		if len(s.Pat.Targets) > 0 {
			b.WriteString(strings.Join(s.Pat.Targets, ","))
			b.WriteString(" = ")
		}
		if s.Pat.Receiver != "" {
			b.WriteString(s.Pat.Receiver)
			b.WriteString(".")
		}
		if s.Pat.Func != "" {
			b.WriteString(s.Pat.Func)
			b.WriteString("(")
			b.WriteString(strings.Join(s.Pat.Args, ","))
			b.WriteString(")")
		} else {
			b.WriteString("expr(")
			b.WriteString(strings.Join(s.Pat.Args, ","))
			b.WriteString(")")
		}
		return b.String()
	}
}

// ---------- execution ----------

// Ctx carries execution state through a program run.
type Ctx struct {
	Env *Env
	// Log receives each log statement's output line; with nil, log statements
	// are not evaluated (they are side-effect-free by contract).
	Log func(line string)
	// LoopHook, when non-nil, intercepts nested loop execution (the
	// SkipBlock runtime installs itself here). Returning handled=true means
	// the hook fully applied the loop's effects (by execution or by
	// restoration).
	LoopHook func(ctx *Ctx, l *Loop) (handled bool, err error)
}

// Emit formats and forwards a log line.
func (c *Ctx) Emit(label, line string) {
	if c.Log != nil {
		c.Log(label + ": " + line)
	}
}

// ExecStmts runs a statement list against ctx.
func ExecStmts(ctx *Ctx, stmts []Stmt) error {
	for i := range stmts {
		if err := ExecStmt(ctx, &stmts[i]); err != nil {
			return err
		}
	}
	return nil
}

// ExecStmt runs a single statement.
func ExecStmt(ctx *Ctx, s *Stmt) error {
	switch {
	case s.IsLog:
		if ctx.Log == nil {
			return nil // a side-effect-free expression whose result nobody takes
		}
		env := ctx.Env
		env.logging = true
		line, err := s.EvalLog(env)
		env.logging = false
		// A read that failed inside the expression outranks whatever it went
		// on to compute from the state it did not get, and the observer's
		// verdict on the statement outranks both.
		if env.err != nil {
			err, env.err = env.err, nil
		}
		if env.obs != nil {
			if oerr := env.obs.Logged(); oerr != nil {
				err = oerr
			}
		}
		if err != nil {
			return fmt.Errorf("script: log %q: %w", s.Label, err)
		}
		ctx.Emit(s.Label, line)
		return nil
	case s.Loop != nil:
		if ctx.LoopHook != nil {
			handled, err := ctx.LoopHook(ctx, s.Loop)
			if err != nil || handled {
				return err
			}
		}
		return ExecLoop(ctx, s.Loop)
	default:
		if o := ctx.Env.obs; o != nil {
			if err := o.Sync(); err != nil {
				return fmt.Errorf("script: %s: %w", s.Render(), err)
			}
		}
		if err := s.Do(ctx.Env); err != nil {
			return fmt.Errorf("script: %s: %w", s.Render(), err)
		}
		return nil
	}
}

// ExecLoop runs every iteration of a loop body.
func ExecLoop(ctx *Ctx, l *Loop) error {
	return ExecLoopTimed(ctx, l, nil)
}

// ExecLoopTimed runs a loop exactly like ExecLoop, additionally reporting
// each iteration's wall-clock duration to onIter (when non-nil). The record
// phase captures per-iteration timings with it for the replay scheduler's
// cost model.
func ExecLoopTimed(ctx *Ctx, l *Loop, onIter func(iter int, ns int64)) error {
	for i := 0; i < l.Iters; i++ {
		var t0 time.Time
		if onIter != nil {
			t0 = time.Now()
		}
		ctx.Env.SetInt(l.IterVar, i)
		if err := ExecStmts(ctx, l.Body); err != nil {
			return fmt.Errorf("script: loop %s iteration %d: %w", l.ID, i, err)
		}
		if onIter != nil {
			onIter(i, time.Since(t0).Nanoseconds())
		}
	}
	return nil
}

// Run executes a whole program: setup, main loop, tail.
func Run(ctx *Ctx, p *Program) error {
	if err := ExecStmts(ctx, p.Setup); err != nil {
		return err
	}
	if p.Main != nil {
		if err := ExecLoop(ctx, p.Main); err != nil {
			return err
		}
	}
	return ExecStmts(ctx, p.Tail)
}

// ---------- static structure ----------

// Loops returns every loop in the program (main first, then nested loops in
// pre-order).
func (p *Program) Loops() []*Loop {
	var out []*Loop
	if p.Main != nil {
		out = append(out, p.Main)
		out = append(out, nestedLoops(p.Main.Body)...)
	}
	return out
}

func nestedLoops(body []Stmt) []*Loop {
	var out []*Loop
	for i := range body {
		if l := body[i].Loop; l != nil {
			out = append(out, l)
			out = append(out, nestedLoops(l.Body)...)
		}
	}
	return out
}

// FindLoop returns the loop with the given ID, if present.
func (p *Program) FindLoop(id string) (*Loop, bool) {
	for _, l := range p.Loops() {
		if l.ID == id {
			return l, true
		}
	}
	return nil, false
}

// DefinedBefore returns the set of variables first assigned outside loop l
// (in setup or in enclosing loops before l's body). A variable assigned only
// inside l's body is "loop-scoped" to l (paper §5.2.1's filtering step).
func (p *Program) DefinedBefore(l *Loop) map[string]bool {
	defined := map[string]bool{}
	var walk func(stmts []Stmt) bool // returns true when l was reached
	collect := func(s *Stmt) {
		for _, t := range s.Pat.Targets {
			defined[t] = true
		}
	}
	walk = func(stmts []Stmt) bool {
		for i := range stmts {
			s := &stmts[i]
			if s.Loop != nil {
				if s.Loop == l {
					return true
				}
				defined[s.Loop.IterVar] = true
				if walk(s.Loop.Body) {
					return true
				}
				continue
			}
			collect(s)
		}
		return false
	}
	if walk(p.Setup) {
		return defined
	}
	if p.Main != nil {
		if p.Main == l {
			return defined
		}
		defined[p.Main.IterVar] = true
		if walk(p.Main.Body) {
			return defined
		}
	}
	walk(p.Tail)
	return defined
}
