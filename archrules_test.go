package flor_test

// Architecture rules as tests: each walks the syntax trees of the
// repository's non-test Go files (go/parser, go/ast) and matches
// identifiers, selectors, calls and string literals — never comments, and
// never the text of a line — so a rule holds whatever the formatting.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sourceFile is one parsed non-test Go file, its path slash-separated and
// relative to the repository root.
type sourceFile struct {
	path string
	ast  *ast.File
	fset *token.FileSet
}

// pos renders n's position for a failure message.
func (f sourceFile) pos(n ast.Node) string {
	p := f.fset.Position(n.Pos())
	return f.path + ":" + strconv.Itoa(p.Line)
}

// sourceFiles parses every non-test Go file under dir (the repository root
// when "."), descending into subdirectories when recursive, but never into
// testdata or a hidden directory.
func sourceFiles(t *testing.T, dir string, recursive bool) []sourceFile {
	t.Helper()
	var out []sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out = append(out, sourceFile{path: filepath.ToSlash(path), ast: f, fset: fset})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no Go source under %s", dir)
	}
	return out
}

// literal returns the value of a string literal, ok false for anything else.
func literal(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// mentions reports whether n's subtree holds an identifier named one of
// names: a selector's name or a called function's included.
func mentions(n ast.Node, names ...string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && slices.Contains(names, id.Name) {
			found = true
		}
		return !found
	})
	return found
}

// enclosingFunc returns the name of the top-level function of f that
// target sits in ("" outside any).
func enclosingFunc(f *ast.File, target ast.Node) string {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= target.Pos() && target.End() <= fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// TestArchOlderLayoutsAreMigratedNotServed: every layout an older build
// left is read by one sequential reader, store.ReadLegacy in
// internal/store/legacy.go, and only florctl migrate (core.Migrate) calls
// it; every open refuses those layouts with store.ErrLegacyLayout. So no
// non-test file outside legacy.go names format v1, the SHARDS file, a
// segment file, the shard-dir options, hash-prefix shards or the private
// marker of the build before every run named its pool — as an identifier
// or inside a string literal — and ReadLegacy is referred to, called or
// taken as a value, only inside core.Migrate.
func TestArchOlderLayoutsAreMigratedNotServed(t *testing.T) {
	legacy := []string{
		"FormatV1", "SHARDS", "ckpt-", "segmentPath", "ShardDirs", "PinShardDirs", "ShardRoots",
		"shardTab", "shardOf", "shardIndex", "shardName", "ShardFanout",
		"markerPrivate", "2 dirs packlog",
	}
	for _, f := range sourceFiles(t, ".", true) {
		if f.path == "internal/store/legacy.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			text, ok := literal(n)
			if id, isID := n.(*ast.Ident); isID {
				text, ok = id.Name, true
				if id.Name == "ReadLegacy" && (f.path != "internal/core/core.go" || enclosingFunc(f.ast, id) != "Migrate") {
					t.Errorf("%s: ReadLegacy outside core.Migrate", f.pos(n))
				}
			}
			for _, name := range legacy {
				if ok && strings.Contains(text, name) {
					t.Errorf("%s: %q names an older layout outside internal/store/legacy.go", f.pos(n), text)
				}
			}
			return true
		})
	}
}

// TestArchOneLockPerCommit: writers in any process or instance are ordered
// by the pool's commit lock (an flock on the pool root) and catch up with
// the files under it; nothing in memory is shared between pool instances.
// So no non-test file of internal/store or its subpackages names a
// process-wide pool registry or a GC fence.
func TestArchOneLockPerCommit(t *testing.T) {
	for _, f := range sourceFiles(t, "internal/store", true) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (strings.Contains(id.Name, "poolRegistry") || strings.Contains(id.Name, "gcMu")) {
				t.Errorf("%s: %s — a pool registry or GC fence in internal/store", f.pos(n), id.Name)
			}
			return true
		})
	}
}

// TestArchPoolOwnsItsSnapshot: the pack is the log, and a pool's INDEX is a
// snapshot persistIndex writes whole, by write-then-rename (a GC pass,
// Store.WriteIndex). Among the store package's non-test files, only pool.go
// frames a chunk or pack record or refers to their encoders; a recordLog —
// the one appender of CRC-framed records — is built only for the MANIFEST;
// only store.go and backend.go name O_APPEND; and no append, of any kind,
// is handed the INDEX's name or path.
func TestArchPoolOwnsItsSnapshot(t *testing.T) {
	for _, f := range sourceFiles(t, "internal/store", false) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if f.path != "internal/store/pool.go" && (n.Name == "encodeChunkRecord" || n.Name == "encodeShardRecord") {
					t.Errorf("%s: %s outside pool.go", f.pos(n), n.Name)
				}
				if n.Name == "O_APPEND" && f.path != "internal/store/store.go" && f.path != "internal/store/backend.go" {
					t.Errorf("%s: O_APPEND outside store.go and backend.go", f.pos(n))
				}
			case *ast.CompositeLit:
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "recordLog" && !mentions(n, "manifestFile") {
					t.Errorf("%s: a recordLog that is not the MANIFEST", f.pos(n))
				}
			case *ast.CallExpr:
				fn := ""
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					fn = fun.Name
				case *ast.SelectorExpr:
					fn = fun.Sel.Name
				}
				if fn == "frameTagged" && len(n.Args) > 0 && mentions(n.Args[0], "recChunk", "recShard") && f.path != "internal/store/pool.go" {
					t.Errorf("%s: a chunk or pack record framed outside pool.go", f.pos(n))
				}
				if _, method := n.Fun.(*ast.SelectorExpr); (method && (fn == "append" || fn == "Append") || mentions(n, "O_APPEND")) && mentions(n, "poolIndexFile", "indexPath") {
					t.Errorf("%s: an append to the INDEX, which is a snapshot written whole", f.pos(n))
				}
			}
			return true
		})
	}
}
