// Package analyzertest runs an analyzer over fixture packages and checks
// its diagnostics against "// want" comments, in the manner of
// golang.org/x/tools/go/analysis/analysistest (which the offline build
// cannot depend on).
//
// Fixtures live under the analyzer's testdata/src/<path>/ directory, one
// package per directory; imports between fixture packages resolve within
// the same src root, and standard-library imports load from the export
// data the go command builds (`go list -export`), as in the modrun
// driver. A fixture line expecting a diagnostic carries a trailing
//
//	// want "regexp"
//	// want "first" "second"
//	// want 12:"regexp"
//
// comment: several quoted regexps may follow one want, each naming one
// expected diagnostic on that line, and a regexp may be prefixed with a
// column number and colon to pin the diagnostic's column as well. The
// test fails on any unmatched expectation and on any unexpected
// diagnostic, so every fixture proves both true positives and
// non-findings.
//
// For analyzers that exchange cross-package facts, Run analyzes the
// fixture package's fixture-local imports first, in dependency order,
// threading each package's exported fact set to its dependents — the
// same propagation the real drivers perform — and checks want comments
// in those dependency packages too.
package analyzertest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
)

// TB is the subset of *testing.T the runner needs; tests of the runner
// itself substitute a recorder.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// loader type-checks fixture packages, resolving fixture-local imports
// under srcRoot and everything else from export data.
type loader struct {
	fset    *token.FileSet
	srcRoot string
	pkgs    map[string]*loaded
	std     types.Importer
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(srcRoot string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		srcRoot: srcRoot,
		pkgs:    map[string]*loaded{},
		std:     importer.ForCompiler(fset, "gc", lookupExport),
	}
}

// exportFiles maps standard-library import paths to their export data
// files. It is shared by every loader in the process, so a test binary
// asks the go command about each package graph once.
var exportFiles sync.Map

// lookupExport opens the export data of a standard-library package. On a
// miss it runs `go list -export -deps` for the path, which builds the
// export data into the go command's cache (once per toolchain) and names
// the files of the package and everything it imports.
func lookupExport(path string) (io.ReadCloser, error) {
	if f, ok := exportFiles.Load(path); ok {
		return os.Open(f.(string))
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyzertest: go list -export %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analyzertest: parse go list output: %w", err)
		}
		if p.Export != "" {
			exportFiles.Store(p.ImportPath, p.Export)
		}
	}
	if f, ok := exportFiles.Load(path); ok {
		return os.Open(f.(string))
	}
	return nil, fmt.Errorf("analyzertest: no export data for %q", path)
}

func (l *loader) Import(path string) (*types.Package, error) {
	if fi, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(path))); err == nil && fi.IsDir() {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, lp.err
	}
	lp := &loaded{}
	l.pkgs[path] = lp
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		lp.err = err
		return lp, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		lp.err = fmt.Errorf("analyzertest: no Go files in %s", dir)
		return lp, lp.err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			lp.err = err
			return lp, err
		}
		lp.files = append(lp.files, f)
	}
	lp.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := &types.Config{Importer: l}
	lp.pkg, lp.err = conf.Check(path, l.fset, lp.files, lp.info)
	return lp, lp.err
}

// topo returns every loaded fixture package, dependencies first.
func (l *loader) topo() []string {
	visited := map[string]bool{}
	var order []string
	var visit func(path string)
	visit = func(path string) {
		if visited[path] {
			return
		}
		visited[path] = true
		lp := l.pkgs[path]
		if lp == nil || lp.pkg == nil {
			return
		}
		for _, imp := range lp.pkg.Imports() {
			if _, ok := l.pkgs[imp.Path()]; ok {
				visit(imp.Path())
			}
		}
		order = append(order, path)
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		visit(p)
	}
	return order
}

// expectation is one // want entry: a message regexp, optionally pinned
// to a column.
type expectation struct {
	file    string
	line    int
	col     int // 0 means any column
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

func parseWants(t TB, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					col := 0
					// Optional "N:" column prefix before the quoted regexp.
					if i := strings.IndexAny(rest, `:"`); i >= 0 && rest[i] == ':' {
						n, err := strconv.Atoi(rest[:i])
						if err != nil || n <= 0 {
							t.Fatalf("%s: malformed want column prefix in %q", pos, c.Text)
						}
						col = n
						rest = rest[i+1:]
					}
					if rest == "" || rest[0] != '"' {
						t.Fatalf("%s: malformed want comment %q", pos, c.Text)
					}
					lit, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
					}
					pattern, _ := strconv.Unquote(lit)
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, col: col, re: re, raw: pattern,
					})
					rest = strings.TrimSpace(rest[len(lit):])
				}
			}
		}
	}
	return wants
}

// Run loads the fixture package at srcRoot/<pkgPath> — analyzing its
// fixture-local imports first with facts flowing between packages — and
// checks the analyzer's diagnostics against every loaded fixture file's
// want comments.
func Run(t TB, srcRoot, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	l := newLoader(srcRoot)
	if _, err := l.load(pkgPath); err != nil {
		t.Fatalf("load fixture %s: %v", pkgPath, err)
	}

	facts := map[string]*analysis.FactSet{}
	var diags []analysis.Diagnostic
	var allFiles []*ast.File
	for _, path := range l.topo() {
		lp := l.pkgs[path]
		imported := analysis.NewFactSet()
		for _, imp := range lp.pkg.Imports() {
			if fs, ok := facts[imp.Path()]; ok {
				imported.Merge(fs)
			}
		}
		ds, exported, err := analysis.RunWithFacts([]*analysis.Analyzer{a}, l.fset, lp.files, lp.pkg, lp.info, imported)
		if err != nil {
			t.Fatalf("run %s over %s: %v", a.Name, path, err)
		}
		facts[path] = exported
		diags = append(diags, ds...)
		allFiles = append(allFiles, lp.files...)
	}
	wants := parseWants(t, l.fset, allFiles)

	for _, d := range diags {
		pos := l.fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line &&
				(w.col == 0 || w.col == pos.Column) && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			if w.col > 0 {
				t.Errorf("%s:%d:%d: expected diagnostic matching %q, got none", w.file, w.line, w.col, w.raw)
			} else {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
			}
		}
	}
}
