// Package analysis is the repo's static-analysis framework: a deliberately
// small, standard-library-only core in the shape of
// golang.org/x/tools/go/analysis, carrying the project-specific analyzers
// under internal/analysis/... and the cmd/sit-vet tool that runs them.
//
// The paper's tool exists because the DDA's eyeballs cannot be trusted to
// catch assertion conflicts; this package exists because the compiler's
// eyeballs cannot be trusted to catch the server's concurrency, durability
// and error-handling invariants. Each analyzer codifies one invariant the
// review cycle has already caught real bugs against:
//
//   - lockguard: fields documented "guarded by <mu>" are only touched with
//     <mu> held, and never written under an RLock.
//   - errtype: errors are classified with errors.Is/errors.As, never by
//     comparing or substring-matching message text.
//   - journalorder: durable-state mutations in internal/server are
//     write-ahead journaled before they are applied.
//   - metriclabel: metric label values come from bounded-cardinality
//     sources, never from request-derived strings.
//   - lockio: no file or network I/O runs while an in-memory mutex is held.
//   - directive: every //sit: directive is spelled right, has the right
//     arity and sits where an analyzer reads it.
//   - lockorder: the whole-program lock-acquisition graph has no cycle.
//
// Analyzers receive one type-checked package at a time (a Pass) and
// report position-tagged diagnostics. Checks that span packages exchange
// facts (facts.go): typed data an analyzer attaches to a function or a
// package and reads back while analyzing the packages that import it.
// The driver, internal/analysis/modrun, runs packages in dependency order
// and hands each one its dependencies' facts.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check: a name, a documentation string and a Run
// function applied to one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: first line a one-sentence
	// summary, the rest the full contract it enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. The returned error aborts the whole run (reserve it for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives each diagnostic; installed by the driver.
	report func(Diagnostic)
	// imported holds facts from the package's dependencies; exported
	// collects facts this package's analyzers produce. Both installed by
	// the driver (nil outside fact-carrying runs).
	imported *FactSet
	exported *FactSet
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run applies the analyzer to a loaded package, invoking report for each
// diagnostic in source order (the order analyzers emit; drivers sort).
func (a *Analyzer) run(pass *Pass, report func(Diagnostic)) error {
	pass.Analyzer = a
	pass.report = report
	return a.Run(pass)
}

// RunAll applies every analyzer to the package described by fset/files/pkg/
// info and returns the diagnostics sorted by position. No facts flow in or
// out; single-package drivers and tests of fact-free analyzers use this.
func RunAll(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	diags, _, err := RunWithFacts(analyzers, fset, files, pkg, info, nil)
	return diags, err
}

// RunWithFacts applies every analyzer to the package, seeding each pass
// with the dependency facts in imported and returning the diagnostics
// (sorted by position) together with the package's exported fact set —
// everything the analyzers exported plus the imported set, so drivers
// propagate facts transitively by handing each package's output to its
// dependents.
func RunWithFacts(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, imported *FactSet) ([]Diagnostic, *FactSet, error) {
	exported := NewFactSet()
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, imported: imported, exported: exported}
		if err := a.run(pass, func(d Diagnostic) { diags = append(diags, d) }); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	exported.Merge(imported)
	return diags, exported, nil
}

func sortDiagnostics(diags []Diagnostic) {
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diags[j].Pos < diags[j-1].Pos; j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}
