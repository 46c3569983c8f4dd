package analyzertest

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeFixture lays out a srcRoot with the given path→content files.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// callReporter reports every call expression at the callee's position.
func callReporter() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "calls",
		Doc:  "reports each call expression",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						pass.Reportf(call.Pos(), "call here")
					}
					return true
				})
			}
			return nil
		},
	}
}

func TestMultipleWantsPerLine(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"multi/multi.go": `package multi

func f() {}

func g() { f(); f() } // want "call here" "call here"
`,
	})
	Run(t, root, "multi", callReporter())
}

func TestColumnPinnedWants(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"cols/cols.go": `package cols

func f() {}

func g() { f(); f() } // want 12:"call here" 17:"call here"
`,
	})
	Run(t, root, "cols", callReporter())
}

func TestColumnMismatchFails(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"badcol/badcol.go": `package badcol

func f() {}

func g() { f() } // want 99:"call here"
`,
	})
	sub := &recordingT{T: t}
	Run(sub, root, "badcol", callReporter())
	if !sub.failed {
		t.Fatal("column mismatch did not fail the fixture")
	}
	joined := strings.Join(sub.errors, "\n")
	if !strings.Contains(joined, "unexpected diagnostic") || !strings.Contains(joined, ":99:") {
		t.Fatalf("failure does not name both sides:\n%s", joined)
	}
}

type factOnFuncs struct {
	Name string `json:"name"`
}

func (*factOnFuncs) AFact() {}

// depFactAnalyzer exports a fact per exported function and reports
// cross-package calls to fact-carrying functions — exercising fact flow
// from a fixture dependency into the package under test.
func depFactAnalyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "depfact",
		Doc:  "facts across fixture packages",
		Run: func(pass *analysis.Pass) error {
			scope := pass.Pkg.Scope()
			for _, name := range scope.Names() {
				if fn, ok := scope.Lookup(name).(*types.Func); ok && fn.Exported() {
					pass.ExportObjectFact(fn, &factOnFuncs{Name: name})
				}
			}
			for ident, obj := range pass.TypesInfo.Uses {
				var f factOnFuncs
				if obj.Pkg() != nil && obj.Pkg() != pass.Pkg && pass.ImportObjectFact(obj, &f) {
					pass.Reportf(ident.Pos(), "uses %s from %s", f.Name, analysis.BasePath(obj.Pkg().Path()))
				}
			}
			return nil
		},
	}
}

func TestFactsFlowBetweenFixturePackages(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"dep/dep.go": `package dep

func Provide() int { return 1 }
`,
		"top/top.go": `package top

import "dep"

func use() int {
	return dep.Provide() // want "uses Provide from dep"
}
`,
	})
	Run(t, root, "top", depFactAnalyzer())
}

func TestWantsInDependencyPackagesChecked(t *testing.T) {
	// A want comment in the dependency fixture is honored too: deleting
	// the diagnostic it names fails the run.
	root := writeFixture(t, map[string]string{
		"depw/depw.go": `package depw

func Helper() {} // want 99:"never reported"
`,
		"topw/topw.go": `package topw

import "depw"

func use() { depw.Helper() }
`,
	})
	sub := &recordingT{T: t}
	Run(sub, root, "topw", callReporter())
	if !sub.failed {
		t.Fatal("unmatched want in dependency fixture did not fail the run")
	}
	if joined := strings.Join(sub.errors, "\n"); !strings.Contains(joined, "never reported") {
		t.Fatalf("failure does not name the dependency want:\n%s", joined)
	}
}

// recordingT captures Errorf so a deliberately failing fixture can be
// asserted on without failing the real test.
type recordingT struct {
	*testing.T
	failed bool
	errors []string
}

func (r *recordingT) Errorf(format string, args ...any) {
	r.failed = true
	r.errors = append(r.errors, strings.TrimSpace(fmt.Sprintf(format, args...)))
}
