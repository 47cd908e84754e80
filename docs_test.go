package flor_test

// Documentation hygiene checks, run by the tier-1 suite and by the CI docs
// lane: every internal package must carry a godoc package comment, every
// relative link in the repo's markdown docs must resolve, and every command
// the docs show must name things that exist. Keeping these as plain tests
// (rather than CI-only shell) means a broken doc fails `go test ./...`
// locally, before review.

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flor.dev/flor/internal/bench"
	"flor.dev/flor/internal/obs"
)

// TestInternalPackageComments fails for any internal/* (or cmd/*) package
// whose Go files all lack a package comment. The comment is the package's
// godoc front door; subsystem-sized packages (store, sched, serve) document
// their on-disk formats and compatibility contracts there.
func TestInternalPackageComments(t *testing.T) {
	roots := []string{"internal", "cmd"}
	for _, root := range roots {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := filepath.Join(root, e.Name())
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			documented := false
			sawSource := false
			fset := token.NewFileSet()
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					continue
				}
				sawSource = true
				af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if sawSource && !documented {
				t.Errorf("package %s has no package comment (add one to a file in %s)", e.Name(), dir)
			}
		}
	}
}

// mdLink matches markdown links/images; group 1 is the target.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocRelativeLinks resolves every relative link in README.md and
// docs/*.md against the filesystem, so doc reorganizations cannot leave
// dangling references.
func TestDocRelativeLinks(t *testing.T) {
	mds := []string{"README.md", "ROADMAP.md", "CHANGES.md"}
	extra, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	mds = append(mds, extra...)
	for _, md := range mds {
		raw, err := os.ReadFile(md)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

// What the user-facing docs may show of the two harnesses: a florbench
// experiment list, a benchmark file, a florperf workload.
var (
	docExp       = regexp.MustCompile(`-exp[ =]([A-Za-z0-9_,-]+)`)
	docBenchFile = regexp.MustCompile(`\bBENCH\w*\.json\b`)
	docWorkload  = regexp.MustCompile(`--workload[ =]([A-Za-z0-9_-]+)`)
)

// TestDocCommandsExist keeps README.md and docs/*.md from naming things that
// are gone: every `-exp <name>` they show is an experiment florbench accepts
// (bench.Experiments, the list cmd/florbench validates against), every
// BENCH*.json they mention exists at the repository root, and every
// `--workload <name>` is a workload BENCHMARK.json declares.
func TestDocCommandsExist(t *testing.T) {
	exps := map[string]bool{"all": true}
	for _, e := range bench.Experiments {
		exps[e.Name] = true
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}

	mds, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range append(mds, "README.md") {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		for _, m := range docExp.FindAllStringSubmatch(doc, -1) {
			for _, name := range strings.Split(m[1], ",") {
				if !exps[name] {
					t.Errorf("%s: shows `-exp %s`, but florbench accepts no experiment %q", md, m[1], name)
				}
			}
		}
		for _, name := range docBenchFile.FindAllString(doc, -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s: mentions %s, which is not at the repository root", md, name)
			}
		}
		for _, m := range docWorkload.FindAllStringSubmatch(doc, -1) {
			if !workloads[m[1]] {
				t.Errorf("%s: shows `--workload %s`, which BENCHMARK.json does not declare", md, m[1])
			}
		}
	}
}

// TestMetricCatalogDocumented requires every metric in the obs catalog to
// appear in docs/OBSERVABILITY.md: the registry's closed namespace means a
// metric cannot exist without a catalog row, and this test means a catalog
// row cannot exist without operator documentation.
func TestMetricCatalogDocumented(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, d := range obs.Catalog {
		if !strings.Contains(doc, "`"+d.Name+"`") {
			t.Errorf("metric %s is in the catalog but not documented in docs/OBSERVABILITY.md", d.Name)
		}
		for _, l := range d.Labels {
			if !strings.Contains(doc, "`"+l+"`") {
				t.Errorf("metric %s label %q not mentioned in docs/OBSERVABILITY.md", d.Name, l)
			}
		}
	}
}
