package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"flor.dev/flor/internal/value"
)

// counterProgram builds a small program:
//
//	setup:  total = 0
//	main loop (3 epochs):
//	  nested loop "train" (4 steps): total = total + 1  [as method call pattern]
//	  log "epoch_total"
//	tail:   log "final"
func counterProgram() *Program {
	inc := AssignMethod([]string{"total"}, "total", "add", []string{"one"}, func(e *Env) error {
		e.SetInt("total", e.Int("total")+1)
		return nil
	})
	return &Program{
		Name: "counter",
		Setup: []Stmt{
			AssignExpr([]string{"total"}, nil, func(e *Env) error {
				e.SetInt("total", 0)
				return nil
			}),
		},
		Main: &Loop{
			ID:      "main",
			IterVar: "epoch",
			Iters:   3,
			Body: []Stmt{
				LoopStmt(&Loop{ID: "train", IterVar: "step", Iters: 4, Body: []Stmt{inc}}),
				LogStmt("epoch_total", func(e *Env) (string, error) {
					return fmt.Sprintf("epoch=%d total=%d", e.Int("epoch"), e.Int("total")), nil
				}),
			},
		},
		Tail: []Stmt{
			LogStmt("final", func(e *Env) (string, error) {
				return fmt.Sprintf("total=%d", e.Int("total")), nil
			}),
		},
	}
}

func runCollectingLogs(t *testing.T, p *Program) []string {
	t.Helper()
	var logs []string
	ctx := &Ctx{Env: NewEnv(), Log: func(line string) { logs = append(logs, line) }}
	if err := Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	return logs
}

func TestRunExecutesLoopsAndLogs(t *testing.T) {
	logs := runCollectingLogs(t, counterProgram())
	want := []string{
		"epoch_total: epoch=0 total=4",
		"epoch_total: epoch=1 total=8",
		"epoch_total: epoch=2 total=12",
		"final: total=12",
	}
	if len(logs) != len(want) {
		t.Fatalf("logs = %v", logs)
	}
	for i := range want {
		if logs[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q", i, logs[i], want[i])
		}
	}
}

func TestEnvOrderAndAccessors(t *testing.T) {
	e := NewEnv()
	e.SetInt("b", 1)
	e.SetFloat("a", 2.5)
	e.Set("c", &value.String{V: "x"})
	names := e.Names()
	if len(names) != 3 || names[0] != "b" || names[1] != "a" || names[2] != "c" {
		t.Fatalf("Names = %v", names)
	}
	if e.Int("b") != 1 || e.Float("a") != 2.5 {
		t.Fatal("accessors wrong")
	}
	e.SetInt("b", 9)
	if e.Int("b") != 9 {
		t.Fatal("SetInt did not update")
	}
	if len(e.Names()) != 3 {
		t.Fatal("re-set changed order length")
	}
	if _, ok := e.Get("missing"); ok {
		t.Fatal("Get on missing name")
	}
}

// TestEnvResetReturnsToFrame pins what a reused program's environment goes
// back to: the names and objects of the frame, in its order — not the
// objects' state, and not a name bound since.
func TestEnvResetReturnsToFrame(t *testing.T) {
	e := NewEnv()
	e.SetInt("a", 1)
	e.SetFloat("b", 2)
	box := e.MustGet("a")
	f := e.Frame()
	e.SetInt("a", 5)
	e.Set("b", &value.Float{V: 9})
	e.SetInt("later", 3)
	e.Observe(&traceObserver{})
	e.Reset(f)
	if names := e.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names after Reset = %v", names)
	}
	if e.MustGet("a") != box || e.Int("a") != 5 || e.Float("b") != 2 {
		t.Fatalf("after Reset: a=%d (same box %v), b=%v", e.Int("a"), e.MustGet("a") == box, e.Float("b"))
	}
	if e.obs != nil {
		t.Fatal("Reset kept the observer")
	}
	var walked []string
	f.Each(func(name string, _ value.Value) { walked = append(walked, name) })
	if len(walked) != 2 || walked[0] != "a" || walked[1] != "b" {
		t.Fatalf("Frame.Each walked %v", walked)
	}
}

func TestSetIntReusesBox(t *testing.T) {
	e := NewEnv()
	e.SetInt("x", 1)
	box := e.MustGet("x")
	e.SetInt("x", 2)
	if e.MustGet("x") != box {
		t.Fatal("SetInt replaced the box; restores hold stale pointers")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on undefined did not panic")
		}
	}()
	NewEnv().MustGet("nope")
}

func TestRenderPatterns(t *testing.T) {
	cases := []struct {
		stmt Stmt
		want string
	}{
		{AssignMethod([]string{"p", "l"}, "net", "forward", []string{"batch"}, nil), "p,l = net.forward(batch)"},
		{AssignFunc([]string{"v"}, "loss_fn", []string{"p", "y"}, nil), "v = loss_fn(p,y)"},
		{AssignExpr([]string{"x"}, []string{"y"}, nil), "x = expr(y)"},
		{ExprMethod("optimizer", "step", nil, nil), "optimizer.step()"},
		{ExprFunc("print", []string{"acc"}, nil), "print(acc)"},
		{LogStmt("loss", nil), "log loss"},
		{LoopStmt(&Loop{ID: "train", IterVar: "i", Iters: 5}), "loop train i:5"},
	}
	for _, c := range cases {
		if got := c.stmt.Render(); got != c.want {
			t.Fatalf("Render = %q, want %q", got, c.want)
		}
	}
}

func TestLoopsEnumeration(t *testing.T) {
	p := counterProgram()
	loops := p.Loops()
	if len(loops) != 2 || loops[0].ID != "main" || loops[1].ID != "train" {
		ids := []string{}
		for _, l := range loops {
			ids = append(ids, l.ID)
		}
		t.Fatalf("Loops = %v", ids)
	}
	if l, ok := p.FindLoop("train"); !ok || l.Iters != 4 {
		t.Fatal("FindLoop(train) failed")
	}
	if _, ok := p.FindLoop("nope"); ok {
		t.Fatal("FindLoop found a ghost")
	}
}

func TestDefinedBefore(t *testing.T) {
	p := counterProgram()
	train, _ := p.FindLoop("train")
	defined := p.DefinedBefore(train)
	if !defined["total"] {
		t.Fatal("total defined in setup should be visible before train loop")
	}
	if !defined["epoch"] {
		t.Fatal("main iter var should be defined before nested loop")
	}
	if defined["step"] {
		t.Fatal("train's own iter var is not defined before it")
	}
	mainDefined := p.DefinedBefore(p.Main)
	if !mainDefined["total"] || mainDefined["epoch"] {
		t.Fatalf("DefinedBefore(main) = %v", mainDefined)
	}
}

func TestShapeEncodeDecodeRoundTrip(t *testing.T) {
	ps := StructureOf(counterProgram())
	dec, err := DecodeProgramShape(ps.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "counter" || dec.Main == nil {
		t.Fatalf("decoded shape wrong: %+v", dec)
	}
	if len(dec.Main.Body) != 2 || dec.Main.Body[0].LoopID != "train" {
		t.Fatalf("main body shape wrong: %+v", dec.Main.Body)
	}
	if string(dec.Encode()) != string(ps.Encode()) {
		t.Fatal("re-encoding differs")
	}
}

func TestDiffNoChangesYieldsNoProbes(t *testing.T) {
	rec := StructureOf(counterProgram())
	probes, err := DiffProbes(rec, counterProgram())
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 0 {
		t.Fatalf("probes = %v, want none", probes)
	}
}

func TestDiffDetectsOuterProbe(t *testing.T) {
	rec := StructureOf(counterProgram())
	probed := counterProgram()
	probed.Main.Body = AddLog(probed.Main.Body, 1, LogStmt("weights_norm", func(e *Env) (string, error) {
		return "1.0", nil
	}))
	probes, err := DiffProbes(rec, probed)
	if err != nil {
		t.Fatal(err)
	}
	if !probes["main"] || probes["train"] {
		t.Fatalf("probes = %v, want {main}", probes)
	}
}

func TestDiffDetectsInnerProbe(t *testing.T) {
	rec := StructureOf(counterProgram())
	probed := counterProgram()
	train := probed.Main.Body[0].Loop
	train.Body = AddLog(train.Body, 0, LogStmt("grad_norm", func(e *Env) (string, error) {
		return "0.5", nil
	}))
	probes, err := DiffProbes(rec, probed)
	if err != nil {
		t.Fatal(err)
	}
	if !probes["main"] || !probes["train"] {
		t.Fatalf("probes = %v, want {main, train}", probes)
	}
}

func TestDiffProbeInSetupProbesNoLoop(t *testing.T) {
	rec := StructureOf(counterProgram())
	probed := counterProgram()
	probed.Setup = AddLog(probed.Setup, 1, LogStmt("init", func(e *Env) (string, error) { return "ok", nil }))
	probed.Tail = AddLog(probed.Tail, 0, LogStmt("bye", func(e *Env) (string, error) { return "ok", nil }))
	probes, err := DiffProbes(rec, probed)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 0 {
		t.Fatalf("probes = %v, want none", probes)
	}
}

func TestDiffRejectsNonLogChanges(t *testing.T) {
	rec := StructureOf(counterProgram())
	changed := counterProgram()
	changed.Main.Body = append(changed.Main.Body, ExprFunc("evil", nil, func(e *Env) error { return nil }))
	var diffErr *DiffError
	if _, err := DiffProbes(rec, changed); !errors.As(err, &diffErr) {
		t.Fatalf("added non-log statement not rejected: %v", err)
	}
}

func TestDiffRejectsRemovedStatements(t *testing.T) {
	rec := StructureOf(counterProgram())
	changed := counterProgram()
	changed.Main.Body = changed.Main.Body[:1] // drop the pre-existing log stmt
	if _, err := DiffProbes(rec, changed); err == nil {
		t.Fatal("removed statement not rejected")
	}
}

func TestDiffRejectsLoopHeaderChange(t *testing.T) {
	rec := StructureOf(counterProgram())
	changed := counterProgram()
	changed.Main.Iters = 5
	if _, err := DiffProbes(rec, changed); err == nil {
		t.Fatal("changed main loop header not rejected")
	}
	changed2 := counterProgram()
	changed2.Main.Body[0].Loop.Iters = 9
	if _, err := DiffProbes(rec, changed2); err == nil {
		t.Fatal("changed nested loop header not rejected")
	}
}

func TestDiffPreExistingLogsAreNotProbes(t *testing.T) {
	// The recorded program already has "epoch_total" and "final" logs; they
	// must not be treated as probes.
	withProbe := counterProgram()
	withProbe.Main.Body = AddLog(withProbe.Main.Body, 2, LogStmt("extra", func(e *Env) (string, error) { return "x", nil }))
	rec := StructureOf(counterProgram())
	probes, err := DiffProbes(rec, withProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !probes["main"] || len(probes) != 1 {
		t.Fatalf("probes = %v", probes)
	}
}

func TestLoopHookInterceptsNestedLoop(t *testing.T) {
	p := counterProgram()
	skipped := 0
	ctx := &Ctx{
		Env: NewEnv(),
		LoopHook: func(c *Ctx, l *Loop) (bool, error) {
			if l.ID == "train" {
				skipped++
				// Apply the loop's effect wholesale, as a restore would.
				c.Env.SetInt("total", c.Env.Int("total")+4)
				return true, nil
			}
			return false, nil
		},
	}
	if err := Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	if skipped != 3 {
		t.Fatalf("hook intercepted %d executions, want 3", skipped)
	}
	if ctx.Env.Int("total") != 12 {
		t.Fatalf("total = %d, want 12", ctx.Env.Int("total"))
	}
}

func TestLoopHookErrorPropagates(t *testing.T) {
	p := counterProgram()
	boom := errors.New("boom")
	ctx := &Ctx{
		Env: NewEnv(),
		LoopHook: func(c *Ctx, l *Loop) (bool, error) {
			return false, boom
		},
	}
	if err := Run(ctx, p); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestStatementErrorIncludesRendering(t *testing.T) {
	p := &Program{
		Name: "failing",
		Setup: []Stmt{
			ExprMethod("obj", "explode", nil, func(e *Env) error { return errors.New("kaput") }),
		},
	}
	err := Run(&Ctx{Env: NewEnv()}, p)
	if err == nil || !strings.Contains(err.Error(), "obj.explode()") {
		t.Fatalf("error %v should name the statement", err)
	}
}

func TestRenderProgram(t *testing.T) {
	out := RenderProgram(counterProgram())
	for _, want := range []string{"program counter", "loop main epoch:3", "loop train step:4", "log epoch_total", "log final"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// traceObserver records what an Env tells its observer — a read during a
// log statement's evaluation when env is set — and fails reads of one name.
type traceObserver struct {
	events  []string
	failing string
	env     *Env
}

var errObserved = errors.New("observer: read failed")

func (o *traceObserver) Read(name string) error {
	ev := "read " + name
	if o.env != nil && o.env.Logging() {
		ev = "log-read " + name
	}
	o.events = append(o.events, ev)
	if name == o.failing {
		return errObserved
	}
	return nil
}
func (o *traceObserver) Write(name string) { o.events = append(o.events, "write "+name) }
func (o *traceObserver) Sync() error       { o.events = append(o.events, "sync"); return nil }
func (o *traceObserver) Logged() error     { o.events = append(o.events, "logged"); return nil }

// TestObserverHearsAccessesBeforeTheyHappen pins the observer protocol: every
// lookup and every assignment is announced by name, an ordinary statement is
// announced before its closure runs, a log statement nobody listens to is
// not evaluated at all, and one that is evaluated reads as a log statement
// and is announced once it has been.
func TestObserverHearsAccessesBeforeTheyHappen(t *testing.T) {
	env := NewEnv()
	obs := &traceObserver{env: env}
	env.Observe(obs)
	env.Set("s", &value.String{V: "x"})
	env.SetInt("n", 1)   // binds
	env.SetInt("n", 2)   // assigns in place
	env.SetFloat("f", 1) // binds
	env.SetFloat("f", 2) // assigns in place
	env.Get("s")
	env.MustGet("s")
	env.Int("n")
	env.Float("f")
	ctx := &Ctx{Env: env}
	stmts := []Stmt{
		ExprMethod("s", "touch", nil, func(e *Env) error { obs.events = append(obs.events, "do"); return nil }),
		LogStmt("unheard", func(e *Env) (string, error) { return "", errors.New("evaluated with no listener") }),
	}
	if err := ExecStmts(ctx, stmts); err != nil {
		t.Fatal(err)
	}
	ctx.Log = func(string) {}
	heard := LogStmt("heard", func(e *Env) (string, error) { return fmt.Sprint(e.Int("n")), nil })
	if err := ExecStmt(ctx, &heard); err != nil {
		t.Fatal(err)
	}
	env.Get("n")
	want := "write s|write n|write n|write f|write f|read s|read s|read n|read f|sync|do|log-read n|logged|read n"
	if got := strings.Join(obs.events, "|"); got != want {
		t.Fatalf("observer heard\n %s\nwant\n %s", got, want)
	}
}

// TestFailedReadFailsTheLogStatement: Env.Get and MustGet cannot return the
// observer's error, so the environment latches it and ExecStmt returns it in
// place of the line the statement computed from state it did not get — once;
// the next statement starts clean.
func TestFailedReadFailsTheLogStatement(t *testing.T) {
	env := NewEnv()
	env.SetInt("good", 1)
	env.SetInt("bad", 2)
	env.Observe(&traceObserver{failing: "bad"})
	var lines []string
	ctx := &Ctx{Env: env, Log: func(l string) { lines = append(lines, l) }}
	read := func(name string) Stmt {
		return LogStmt(name, func(e *Env) (string, error) { return fmt.Sprint(e.Int(name)), nil })
	}
	bad, good := read("bad"), read("good")
	if err := ExecStmt(ctx, &bad); !errors.Is(err, errObserved) || !strings.Contains(err.Error(), `log "bad"`) {
		t.Fatalf("ExecStmt = %v, want the observer's error out of log statement bad", err)
	}
	if err := ExecStmt(ctx, &good); err != nil {
		t.Fatalf("statement after the failed one: %v", err)
	}
	if len(lines) != 1 || lines[0] != "good: 1" {
		t.Fatalf("emitted %v, want only the good statement's line", lines)
	}
}
