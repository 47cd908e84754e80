package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// copyFixture copies the committed store testdata/<name> into a fresh
// directory and returns it, with the program every committed store records:
// the root package's counterFactory(6, 3), the API quickstart's program.
func copyFixture(t *testing.T, name string) (string, func() *script.Program) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "testdata", name))); err != nil {
		t.Fatal(err)
	}
	return dir, func() *script.Program {
		train := &script.Loop{ID: "train", IterVar: "step", Iters: 3, Body: []script.Stmt{
			script.AssignMethod([]string{"w"}, "rng", "perturb", []string{"w"}, func(e *script.Env) error {
				w := e.MustGet("w").(*value.Tensor).T
				rng := e.MustGet("rng").(*value.RNG).R
				for pass := 0; pass < 30; pass++ {
					for i := 0; i < w.Len(); i++ {
						w.Data()[i] += rng.Float64() * 0.001
					}
				}
				return nil
			}),
		}}
		return &script.Program{
			Name: "api-quickstart",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"w"}, "zeros", nil, func(e *script.Env) error {
					e.Set("w", &value.Tensor{T: tensor.New(32)})
					return nil
				}),
				script.AssignFunc([]string{"rng"}, "RNG", nil, func(e *script.Env) error {
					e.Set("rng", &value.RNG{R: xrand.New(11)})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: 6, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("sum", func(e *script.Env) (string, error) {
					return fmt.Sprintf("%.17g", e.MustGet("w").(*value.Tensor).T.Sum()), nil
				}),
			}},
		}
	}
}

// TestHTTPRegistrationAndUnknownFormat400 drives POST /v1/runs end to end:
// a good directory registers against a library program, and a directory
// carrying a future/corrupt FORMAT marker is rejected with 400 — the typed
// store.ErrUnknownFormat surfaced as a client error, with the offending
// marker in the body.
func TestHTTPRegistrationAndUnknownFormat400(t *testing.T) {
	base := t.TempDir()
	factory := miniFactory(6, 2, 3)
	goodDir := filepath.Join(base, "good")
	recordRun(t, goodDir, 6, 2, 3)

	// A directory claiming a layout from the future.
	badDir := filepath.Join(base, "bad")
	os.MkdirAll(badDir, 0o755)
	os.WriteFile(filepath.Join(badDir, "FORMAT"), []byte("7 exotic\n"), 0o644)

	fx := startDaemon(t, serve.Options{
		Slots: 2,
		Library: map[string]map[string]func() *script.Program{
			"mini": {"base": factory, "wnorm": withProbe(factory)},
		},
		RegisterRoot: base,
	})

	resp, body := fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "good", Dir: goodDir, Program: "mini"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register good: %d %s", resp.StatusCode, body)
	}
	var runs []serve.RunInfo
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range runs {
		if r.ID == "good" {
			found = true
			if r.Format != "v2" || strings.Contains(string(body), `"shards"`) {
				t.Fatalf("registered run layout = %q in %s, want v2 and no shard count", r.Format, body)
			}
		}
	}
	if !found {
		t.Fatalf("registered run missing from listing: %s", body)
	}

	// Relative request paths resolve against the register root, not the
	// daemon's working directory.
	resp, body = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "good-rel", Dir: "good", Program: "mini"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register relative dir: %d %s", resp.StatusCode, body)
	}

	// The registered run actually serves queries.
	resp, body = fx.post(t, "/v1/runs/good/replay", serve.ReplayRequest{Probe: "wnorm", Workers: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay registered run: %d %s", resp.StatusCode, body)
	}

	// Unknown store format → 400 naming the marker, not a 500.
	resp, body = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "bad", Dir: badDir, Program: "mini"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register bad dir: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "7 exotic") {
		t.Fatalf("400 body %s does not name the detected marker", body)
	}

	// Nonexistent directory → 400, not 500.
	resp, _ = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "ghost", Dir: filepath.Join(base, "no-such"), Program: "mini"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register nonexistent dir: %d, want 400", resp.StatusCode)
	}

	// An empty (never-recorded) directory → 400 now, not a 500 at first query.
	emptyDir := filepath.Join(base, "empty")
	os.MkdirAll(emptyDir, 0o755)
	resp, body = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "empty", Dir: emptyDir, Program: "mini"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register empty dir: %d %s, want 400", resp.StatusCode, body)
	}

	// Unknown program name → 400 listing the library.
	resp, body = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "x", Dir: goodDir, Program: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register unknown program: %d %s, want 400", resp.StatusCode, body)
	}

	// Duplicate ID → 400.
	resp, _ = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "good", Dir: goodDir, Program: "mini"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate register: %d, want 400", resp.StatusCode)
	}

	// Directories outside the register root are confined away — remote
	// clients must not be able to point the daemon at arbitrary paths.
	outside := t.TempDir()
	recordRun(t, filepath.Join(outside, "r"), 4, 2, 5)
	if err := os.Symlink(outside, filepath.Join(base, "sneaky")); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{
		filepath.Join(outside, "r"),
		filepath.Join(base, "..", "somewhere"),
		"/etc",
		filepath.Join(base, "sneaky", "r"), // symlink under the root escaping it
	} {
		resp, body = fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "escape", Dir: dir, Program: "mini"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register outside root (%s): %d %s, want 400", dir, resp.StatusCode, body)
		}
	}
}

// TestRegisterWithoutLibrary400 pins that HTTP registration on a server
// with no program library is a client error, not a panic or 500.
func TestRegisterWithoutLibrary400(t *testing.T) {
	fx := startDaemon(t, serve.Options{Slots: 2})
	resp, _ := fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "x", Dir: t.TempDir(), Program: "mini"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register without library: %d, want 400", resp.StatusCode)
	}
}

// TestShardRootsPinnedAtRegistration pins that no SHARDS file can point
// the daemon's pack reads at other directories. The committed store an
// older build spread over extra roots (testdata/multiroot) is refused at
// registration — Register with a bad request, POST /v1/runs with a 400,
// each naming florctl migrate — and a SHARDS file planted in a registered
// run after registration fails its next open instead of redirecting reads.
func TestShardRootsPinnedAtRegistration(t *testing.T) {
	base, factory := copyFixture(t, "multiroot")
	dir := filepath.Join(base, "run")
	fx := startDaemon(t, serve.Options{
		Slots:        2,
		Library:      map[string]map[string]func() *script.Program{"quickstart": {"base": factory}},
		RegisterRoot: base,
	})
	err := fx.srv.Register(serve.RunConfig{ID: "multiroot", Dir: dir, Factories: map[string]func() *script.Program{"base": factory}})
	if !errors.Is(err, serve.ErrBadRequest) || !errors.Is(err, store.ErrLegacyLayout) || !strings.Contains(err.Error(), "florctl migrate") {
		t.Fatalf("register a multi-root run: %v, want a bad request naming florctl migrate", err)
	}
	resp, body := fx.post(t, "/v1/runs", serve.RegisterRequest{ID: "multiroot", Dir: "run", Program: "quickstart"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "florctl migrate") {
		t.Fatalf("POST a multi-root run: %d %s, want 400 naming florctl migrate", resp.StatusCode, body)
	}

	// A SHARDS file planted after registration, before the first open.
	victim := fx.dirs["run-a"]
	if err := os.WriteFile(filepath.Join(victim, "SHARDS"), []byte(filepath.Join(base, "rootA")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Workers: 1})
	if resp.StatusCode == http.StatusOK || !strings.Contains(string(body), "florctl migrate") {
		t.Fatalf("replay after a SHARDS file was planted: %d %s, want a refusal naming florctl migrate", resp.StatusCode, body)
	}
}

// TestRunsListingReportsShardedLayout takes the committed sharded store
// (testdata/sharded), refused at registration as a layout this build does
// not write, through florctl migrate's path into a shared pool — one pack,
// as every store this build writes — and checks the listing reports the
// migrated run's layout, and that it serves what it recorded.
func TestRunsListingReportsShardedLayout(t *testing.T) {
	fx := startDaemon(t, serve.Options{Slots: 2})
	dir, factory := copyFixture(t, "sharded")
	cfg := serve.RunConfig{ID: "sharded", Dir: dir, Factories: map[string]func() *script.Program{"base": factory}}
	if err := fx.srv.Register(cfg); !errors.Is(err, serve.ErrBadRequest) || !strings.Contains(err.Error(), "florctl migrate") {
		t.Fatalf("register the sharded fixture: %v, want a bad request naming florctl migrate", err)
	}
	base := t.TempDir()
	cfg.Dir = filepath.Join(base, "run")
	if err := core.Migrate(dir, cfg.Dir, filepath.Join(base, "POOL")); err != nil {
		t.Fatal(err)
	}
	if err := fx.srv.Register(cfg); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range fx.srv.Runs() {
		if r.ID == "sharded" {
			found = true
			if r.Format != "v2-pooled" {
				t.Fatalf("migrated run layout = %q, want v2-pooled", r.Format)
			}
		}
	}
	if !found {
		t.Fatal("migrated run missing from listing")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "record.log"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fx.srv.Replay(context.Background(), "sharded", serve.ReplayRequest{Workers: 2})
	if err != nil || resp.Anomalies != 0 {
		t.Fatalf("replay of the migrated run: %+v, %v", resp, err)
	}
	if got, want := strings.Join(resp.Logs, "\n")+"\n", string(raw); got != want {
		t.Fatalf("the migrated run replays\n%s\nits record.log holds\n%s", got, want)
	}
}
