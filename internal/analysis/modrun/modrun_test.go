package modrun

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/errtest"
)

type exportedFact struct {
	Name string `json:"name"`
}

func (*exportedFact) AFact() {}

// crossPkgAnalyzer exports a fact for every exported function and, when a
// called function carries one, reports the call — so a diagnostic in a
// package that only *calls* the function proves the fact crossed the
// package boundary.
func crossPkgAnalyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "xfact",
		Doc:  "test analyzer: facts across packages",
		Run: func(pass *analysis.Pass) error {
			scope := pass.Pkg.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if obj.Exported() && strings.HasPrefix(name, "Tracked") {
					pass.ExportObjectFact(obj, &exportedFact{Name: name})
				}
			}
			for ident, obj := range pass.TypesInfo.Uses {
				var f exportedFact
				if obj.Pkg() != nil && obj.Pkg() != pass.Pkg && pass.ImportObjectFact(obj, &f) {
					pass.Reportf(ident.Pos(), "call to tracked function %s", f.Name)
				}
			}
			return nil
		},
	}
}

// writeModule lays out a module: pkg b imports pkg a and calls a
// fact-carrying function, from b.go and from b_test.go, and directory c
// holds nothing but an external test package making the same call.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module example.com/m\n\ngo 1.22\n",
		"a/a.go":      "package a\n\nfunc TrackedThing() int { return 1 }\n\nfunc Plain() int { return 2 }\n",
		"b/b.go":      "package b\n\nimport \"example.com/m/a\"\n\nfunc Use() int { return a.TrackedThing() + a.Plain() }\n",
		"b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/a\"\n)\n\nfunc TestUse(t *testing.T) {\n\tif a.TrackedThing() == 0 {\n\t\tt.Fatal(\"zero\")\n\t}\n}\n",
		"c/c_test.go": "package c_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/a\"\n)\n\nfunc TestC(t *testing.T) { _ = a.TrackedThing() }\n",
	}
	for name, content := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
}

func TestRunPropagatesFactsAcrossPackages(t *testing.T) {
	requireGo(t)
	dir := writeModule(t)
	var buf bytes.Buffer
	n, err := Run(&buf, []*analysis.Analyzer{crossPkgAnalyzer()}, Options{
		Dir:      dir,
		Patterns: []string{"./..."},
		ToolID:   "test-build",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n == 0 || !strings.Contains(out, "call to tracked function TrackedThing") {
		t.Fatalf("fact did not cross from a to b:\n%s", out)
	}
	// The production call in b.go and the test-file call in b_test.go must
	// both be flagged: test variants are analyzed, and the fact reached
	// them too.
	if !strings.Contains(out, "b.go:") || !strings.Contains(out, "b_test.go:") {
		t.Fatalf("missing production or test-file diagnostic:\n%s", out)
	}
	// a.Plain carries no fact; only Tracked calls are reported.
	if strings.Contains(out, "Plain") {
		t.Fatalf("untracked function reported:\n%s", out)
	}
}

func TestRunCachesResultsBetweenRuns(t *testing.T) {
	requireGo(t)
	dir := writeModule(t)
	cache := filepath.Join(t.TempDir(), "cache.json")
	opts := Options{Dir: dir, Patterns: []string{"./..."}, ToolID: "test-build", CachePath: cache}

	var first bytes.Buffer
	n1, err := Run(&first, []*analysis.Analyzer{crossPkgAnalyzer()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cache)
	if err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	var cf cacheFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatal(err)
	}
	if len(cf.Packages) == 0 {
		t.Fatal("cache holds no packages")
	}
	if _, ok := cf.Packages["example.com/m/a"]; !ok {
		t.Fatalf("cache missing package a: %v", keys(cf.Packages))
	}

	var second bytes.Buffer
	n2, err := Run(&second, []*analysis.Analyzer{crossPkgAnalyzer()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || first.String() != second.String() {
		t.Fatalf("cached run differs:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}

	// A cache written by a different tool build is discarded, not reused:
	// the run still succeeds and still reports everything.
	var third bytes.Buffer
	stale := opts
	stale.ToolID = "other-build"
	n3, err := Run(&third, []*analysis.Analyzer{crossPkgAnalyzer()}, stale)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1 {
		t.Fatalf("stale-cache run reported %d findings, want %d", n3, n1)
	}
}

func TestRunInvalidatesCacheOnSourceChange(t *testing.T) {
	requireGo(t)
	dir := writeModule(t)
	cache := filepath.Join(t.TempDir(), "cache.json")
	opts := Options{Dir: dir, Patterns: []string{"./..."}, ToolID: "test-build", CachePath: cache}

	var first bytes.Buffer
	if _, err := Run(&first, []*analysis.Analyzer{crossPkgAnalyzer()}, opts); err != nil {
		t.Fatal(err)
	}

	// Add a second tracked call in b; the cached entry for b must not be
	// served.
	bPath := filepath.Join(dir, "b", "b.go")
	src, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	updated := strings.Replace(string(src), "a.TrackedThing() + a.Plain()", "a.TrackedThing() + a.TrackedThing()", 1)
	if err := os.WriteFile(bPath, []byte(updated), 0o666); err != nil {
		t.Fatal(err)
	}

	var second bytes.Buffer
	if _, err := Run(&second, []*analysis.Analyzer{crossPkgAnalyzer()}, opts); err != nil {
		t.Fatal(err)
	}
	if c1, c2 := strings.Count(first.String(), "b.go:"), strings.Count(second.String(), "b.go:"); c2 != c1+1 {
		t.Fatalf("edit not picked up: %d then %d b.go findings\n%s", c1, c2, second.String())
	}
}

// TestRunReportsTestFilesOnceEach pins what the driver exists for: a
// finding only a _test.go file holds is reported — from an in-package test
// file and from a directory holding nothing but an external test package —
// while a finding in a non-test file, which the base package and its test
// variant both analyze, is reported exactly once.
func TestRunReportsTestFilesOnceEach(t *testing.T) {
	requireGo(t)
	dir := writeModule(t)
	var buf bytes.Buffer
	n, err := Run(&buf, []*analysis.Analyzer{crossPkgAnalyzer()}, Options{Dir: dir, Patterns: []string{"./..."}, ToolID: "test-build"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for file, want := range map[string]int{"b.go:": 1, "b_test.go:": 1, "c_test.go:": 1} {
		if got := strings.Count(out, file); got != want {
			t.Errorf("%d findings in %s, want %d:\n%s", got, file, want, out)
		}
	}
	if n != 3 {
		t.Errorf("Run reported %d findings, want 3:\n%s", n, out)
	}
}

// TestRunFailsOnPackageThatDoesNotLoad: a package the go command cannot
// build — a type error in a non-test file, or in a _test.go file only the
// test variant compiles — must fail the run and be named, never skipped.
func TestRunFailsOnPackageThatDoesNotLoad(t *testing.T) {
	requireGo(t)
	for _, tc := range []struct {
		name, file, src, pkg string
	}{
		{"non-test file", "a/bad.go", "package a\n\nvar Bad int = \"x\"\n", "example.com/m/a"},
		{"test file", "b/bad_test.go", "package b\n\nvar bad int = \"x\"\n", "example.com/m/b [example.com/m/b.test]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t)
			if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.src), 0o666); err != nil {
				t.Fatal(err)
			}
			_, err := Run(io.Discard, []*analysis.Analyzer{crossPkgAnalyzer()}, Options{Dir: dir, Patterns: []string{"./..."}, ToolID: "test-build"})
			errtest.WantSubstring(t, err, tc.pkg+":")
			errtest.WantSubstring(t, err, filepath.Base(tc.file))
		})
	}
}

func keys(m map[string]*cacheEntry) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
