//go:build race

package skipblock

import (
	"strings"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/value"
)

// TestLogStatementCannotWriteThroughAView: a log statement whose closure
// bumps a model weight writes, through its view, into the payload the cache
// lends every reader. Race builds checksum what a view lends, so the
// statement fails, naming its label, instead of leaving the cached payload
// wrong for every later query.
func TestLogStatementCannotWriteThroughAView(t *testing.T) {
	const epochs = 3
	reader := func() *script.Program {
		return viewProgram(epochs, func(e *script.Env) (string, error) { return modelNorm(e), nil }, false)
	}
	st := recordProgram(t, reader())
	cache := backmat.NewPayloadCache(0)
	warmReplays(t, st, reader, cache, 2, vanillaLog(t, reader()))

	p := viewProgram(epochs, func(e *script.Env) (string, error) {
		w := e.MustGet("net").(*value.Model).M.Params()[0].Var.Value
		w.Data()[0]++
		return formatFloat(w.Data()[0]), nil
	}, false)
	rt := NewRuntime(p, newTracker(), nil, st)
	rt.SetCache(cache)
	rt.SetMode(ModeReplayExec)
	rt.SetProbes(map[string]bool{"main": true})
	ctx := &script.Ctx{Env: script.NewEnv(), LoopHook: rt.Hook, Log: func(string) {}}
	err := script.Run(ctx, p)
	if err == nil || !strings.Contains(err.Error(), `log "probe"`) || !strings.Contains(err.Error(), "wrote through its view") {
		t.Fatalf("Run = %v, want the probe statement failed for writing through its view", err)
	}
	if b, _ := rt.Block("train"); b.Stats().Viewed == 0 {
		t.Fatal("the probe's read was not served by a view")
	}
}
