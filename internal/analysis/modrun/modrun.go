// Package modrun is sit-vet's driver: it loads every package named by the
// patterns, test variants included, through `go list -export -deps
// -test`, type-checks each against the export data the go command already
// built, and runs the analyzer suite over the module's packages in
// dependency order with facts flowing from each package to its
// dependents.
//
// The driver sees the whole graph in one process: the fact set a package
// exports (its own plus everything inherited) is handed directly to its
// dependents. A module package that does not load — a `go list` error, or
// no export data because it or a test file does not compile — fails the
// run, naming the package; it is never skipped. Results are cached across
// runs in a single JSON file keyed by a Merkle hash of the tool build, the
// package's source bytes and its dependencies' fact sets, so an unchanged
// package costs one hash instead of a re-analysis; a cache written by a
// different tool build or format version is discarded wholesale, never
// reused.
package modrun

import (
	"bytes"
	"crypto/sha256"
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
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// listPackage is the subset of `go list -json` this driver consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Imports    []string
	ImportMap  map[string]string
	ForTest    string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Diagnostic is one rendered finding: position, message and analyzer.
type Diagnostic struct {
	Pos      string `json:"pos"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// cacheFile is the cross-run result cache: per-package Merkle hash, the
// facts the package exported and the diagnostics it produced.
type cacheFile struct {
	Version  string                 `json:"version"`
	ToolID   string                 `json:"toolID"`
	Packages map[string]*cacheEntry `json:"packages"`
}

type cacheEntry struct {
	Hash  string                `json:"hash"`
	Facts []analysis.FactRecord `json:"facts,omitempty"`
	Diags []Diagnostic          `json:"diags,omitempty"`
}

const cacheVersion = "sit-vet-modcache/1"

// Options configures a module run.
type Options struct {
	// Dir is the directory to run `go list` from (the module root or any
	// directory inside it). Empty means the current directory.
	Dir string
	// Patterns are the package patterns ("./..." and friends).
	Patterns []string
	// CachePath, when non-empty, is the cross-run result cache file. A
	// missing or stale cache is recomputed, never trusted.
	CachePath string
	// ToolID keys the cache to one tool build (the sit-vet binary hash).
	ToolID string
}

// Run executes the analyzers over the module, printing diagnostics to w
// ("file:line:col: message [analyzer]") and returning how many were
// reported. An error means the run itself failed, not that findings
// exist: among other causes, a module package that does not load.
func Run(w io.Writer, analyzers []*analysis.Analyzer, opts Options) (int, error) {
	pkgs, err := load(opts)
	if err != nil {
		return 0, err
	}
	byPath := map[string]*listPackage{}
	var broken []string
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		if msg := loadError(p); msg != "" {
			broken = append(broken, msg)
		}
	}
	if len(broken) > 0 {
		return 0, fmt.Errorf("modrun: %d package(s) did not load:\n%s", len(broken), strings.Join(broken, "\n"))
	}

	order, err := topoOrder(pkgs, byPath)
	if err != nil {
		return 0, err
	}

	cache := loadCache(opts.CachePath, opts.ToolID)
	next := &cacheFile{Version: cacheVersion, ToolID: opts.ToolID, Packages: map[string]*cacheEntry{}}

	r := &runner{
		byPath:    byPath,
		analyzers: analyzers,
		facts:     map[string]*analysis.FactSet{},
		hashes:    map[string]string{},
		cache:     cache,
		next:      next,
		toolID:    opts.ToolID,
	}
	var all []Diagnostic
	for _, path := range order {
		p := byPath[path]
		if !analyzable(p) {
			continue
		}
		diags, err := r.analyze(p)
		if err != nil {
			return 0, err
		}
		all = append(all, diags...)
	}
	if opts.CachePath != "" {
		saveCache(opts.CachePath, next)
	}

	// A base package and its test variant analyze the same non-test
	// files; report each finding once.
	seen := map[Diagnostic]bool{}
	var out []Diagnostic
	for _, d := range all {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return posLess(out[i].Pos, out[j].Pos)
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	for _, d := range out {
		fmt.Fprintf(w, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	return len(out), nil
}

// load shells out to `go list` for the package graph.
func load(opts Options) ([]*listPackage, error) {
	// -e keeps go list going past a broken package, so Run can name every
	// one instead of echoing go list's first complaint.
	args := []string{"list", "-e", "-export", "-deps", "-test", "-json=ImportPath,Name,Dir,GoFiles,Standard,Export,Imports,ImportMap,ForTest,Module,Error"}
	cmd := exec.Command("go", append(args, opts.Patterns...)...)
	cmd.Dir = opts.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("modrun: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("modrun: parse go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

type runner struct {
	byPath    map[string]*listPackage
	analyzers []*analysis.Analyzer
	facts     map[string]*analysis.FactSet // exported fact set per analyzed path
	hashes    map[string]string            // Merkle hash per analyzed path
	cache     *cacheFile
	next      *cacheFile
	toolID    string
}

// analyzable: module packages only — never the standard library, never
// the synthesized ".test" main package (generated source), and never a
// package without Go files (a directory holding only _test.go files; its
// test variant is analyzed instead).
func analyzable(p *listPackage) bool {
	return !p.Standard && p.Module != nil && len(p.GoFiles) > 0 && !strings.HasSuffix(p.ImportPath, ".test")
}

// loadError describes why a package cannot be analyzed — go list
// reported an error for it, or the go command built no export data for an
// analyzable package (it, a test file or a dependency does not compile) —
// or returns "".
func loadError(p *listPackage) string {
	switch {
	case p.Error != nil:
		// Build errors arrive under the go command's "# <package>" header.
		msg := strings.TrimPrefix(p.Error.Err, "# "+p.ImportPath+"\n")
		return fmt.Sprintf("%s: %s", p.ImportPath, strings.TrimSpace(msg))
	case analyzable(p) && p.Export == "":
		return fmt.Sprintf("%s: no export data (it or a dependency does not build)", p.ImportPath)
	}
	return ""
}

// depsOf resolves a package's direct imports through its ImportMap.
func (r *runner) depsOf(p *listPackage) []string {
	seen := map[string]bool{}
	var out []string
	for _, imp := range p.Imports {
		if m, ok := p.ImportMap[imp]; ok {
			imp = m
		}
		if !seen[imp] {
			seen[imp] = true
			out = append(out, imp)
		}
	}
	return out
}

func (r *runner) analyze(p *listPackage) ([]Diagnostic, error) {
	imported := analysis.NewFactSet()
	for _, dep := range r.depsOf(p) {
		if fs, ok := r.facts[dep]; ok {
			imported.Merge(fs)
		}
	}
	hash, err := r.packageHash(p, imported)
	if err != nil {
		return nil, err
	}
	r.hashes[p.ImportPath] = hash
	if ent, ok := r.cache.Packages[p.ImportPath]; ok && ent.Hash == hash {
		fs := analysis.NewFactSet()
		for _, rec := range ent.Facts {
			fs.Add(rec)
		}
		r.facts[p.ImportPath] = fs
		r.next.Packages[p.ImportPath] = ent
		return ent.Diags, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range p.GoFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("modrun: %w", err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if m, ok := p.ImportMap[path]; ok {
			path = m
		}
		dep, ok := r.byPath[path]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(dep.Export)
	}
	tc := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := tc.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("modrun: typecheck %s: %w", p.ImportPath, err)
	}
	rawDiags, exported, err := analysis.RunWithFacts(r.analyzers, fset, files, pkg, info, imported)
	if err != nil {
		return nil, fmt.Errorf("modrun: %s: %w", p.ImportPath, err)
	}
	r.facts[p.ImportPath] = exported

	var diags []Diagnostic
	for _, d := range rawDiags {
		diags = append(diags, Diagnostic{Pos: renderPos(fset.Position(d.Pos)), Message: d.Message, Analyzer: d.Analyzer})
	}
	ent := &cacheEntry{Hash: hash, Facts: exported.Records(), Diags: diags}
	r.next.Packages[p.ImportPath] = ent
	return diags, nil
}

// packageHash is the cache key: tool build, source bytes, and the fact
// sets and hashes of the dependencies — a change anywhere upstream
// invalidates every dependent.
func (r *runner) packageHash(p *listPackage, imported *analysis.FactSet) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "tool %s\npkg %s\n", r.toolID, p.ImportPath)
	for _, name := range p.GoFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(p.Dir, name)
		}
		data, err := os.ReadFile(full)
		if err != nil {
			return "", fmt.Errorf("modrun: hash %s: %w", full, err)
		}
		fmt.Fprintf(h, "file %s %d\n", name, len(data))
		h.Write(data)
	}
	for _, dep := range r.depsOf(p) {
		if dh, ok := r.hashes[dep]; ok {
			fmt.Fprintf(h, "dep %s %s\n", dep, dh)
		} else if d, ok := r.byPath[dep]; ok && d.Export != "" {
			// Outside the module (standard library): the export file name
			// is content-addressed by the build cache.
			fmt.Fprintf(h, "ext %s %s\n", dep, filepath.Base(d.Export))
		}
	}
	if data, err := imported.EncodeJSON(); err == nil {
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func renderPos(pos token.Position) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return pos.String()
}

// posLess orders "file:line:col" strings by file, then numerically.
func posLess(a, b string) bool {
	af, al, ac := splitPos(a)
	bf, bl, bc := splitPos(b)
	if af != bf {
		return af < bf
	}
	if al != bl {
		return al < bl
	}
	return ac < bc
}

func splitPos(s string) (file string, line, col int) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 {
		return s, 0, 0
	}
	file = strings.Join(parts[:len(parts)-2], ":")
	fmt.Sscanf(parts[len(parts)-2], "%d", &line)
	fmt.Sscanf(parts[len(parts)-1], "%d", &col)
	return file, line, col
}

// loadCache reads the cross-run cache; any mismatch in format version or
// tool build discards it (stale results are recomputed, never reused).
func loadCache(path, toolID string) *cacheFile {
	empty := &cacheFile{Version: cacheVersion, ToolID: toolID, Packages: map[string]*cacheEntry{}}
	if path == "" {
		return empty
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return empty
	}
	var c cacheFile
	if err := json.Unmarshal(data, &c); err != nil || c.Version != cacheVersion || c.ToolID != toolID || c.Packages == nil {
		return empty
	}
	return &c
}

func saveCache(path string, c *cacheFile) {
	data, err := json.Marshal(c)
	if err != nil {
		return
	}
	if dir := filepath.Dir(path); dir != "" {
		os.MkdirAll(dir, 0o755)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return
	}
	os.Rename(tmp, path)
}

// topoOrder sorts the packages dependencies-first.
func topoOrder(pkgs []*listPackage, byPath map[string]*listPackage) ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := byPath[path]
		if !ok {
			return nil
		}
		switch color[path] {
		case gray:
			return fmt.Errorf("modrun: import cycle through %s", path)
		case black:
			return nil
		}
		color[path] = gray
		for _, imp := range p.Imports {
			if m, ok := p.ImportMap[imp]; ok {
				imp = m
			}
			if err := visit(imp); err != nil {
				return err
			}
		}
		color[path] = black
		order = append(order, path)
		return nil
	}
	// Deterministic entry order.
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
