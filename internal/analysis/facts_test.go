package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

type testFact struct {
	Note string `json:"note"`
}

func (*testFact) AFact() {}

func typecheck(t *testing.T, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("example.com/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

func TestFactRoundTripThroughEncoding(t *testing.T) {
	fset, files, pkg, info := typecheck(t, `package p
type T struct{}
func (t *T) M() {}
func F() {}
`)
	exporter := &Analyzer{
		Name: "exp",
		Doc:  "exports facts",
		Run: func(pass *Pass) error {
			pass.ExportObjectFact(pkg.Scope().Lookup("F"), &testFact{Note: "func"})
			pass.ExportPackageFact(&testFact{Note: "pkg"})
			return nil
		},
	}
	_, exported, err := RunWithFacts([]*Analyzer{exporter}, fset, files, pkg, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := exported.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFactSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Len() != 2 {
		t.Fatalf("decoded %d facts, want 2", decoded.Len())
	}

	// A downstream pass with the decoded set imports both facts back.
	var got []string
	importer := &Analyzer{
		Name: "exp", // facts are namespaced per analyzer name
		Doc:  "imports facts",
		Run: func(pass *Pass) error {
			var f testFact
			if pass.ImportObjectFact(pkg.Scope().Lookup("F"), &f) {
				got = append(got, "obj:"+f.Note)
			}
			if pass.ImportPackageFact("example.com/p", &f) {
				got = append(got, "pkg:"+f.Note)
			}
			if pass.ImportObjectFact(pkg.Scope().Lookup("T"), &f) {
				got = append(got, "unexpected")
			}
			return nil
		},
	}
	if _, _, err := RunWithFacts([]*Analyzer{importer}, fset, files, pkg, info, decoded); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "obj:func" || got[1] != "pkg:pkg" {
		t.Fatalf("imported facts = %v", got)
	}
}

func TestRunWithFactsPropagatesImportsTransitively(t *testing.T) {
	fset, files, pkg, info := typecheck(t, `package p; func F() {}`)
	upstream := NewFactSet()
	upstream.Add(FactRecord{Analyzer: "a", Kind: PackageFactKind, Key: "example.com/dep", Type: "testFact", Data: []byte(`{"note":"dep"}`)})
	noop := &Analyzer{Name: "a", Doc: "noop", Run: func(*Pass) error { return nil }}
	_, exported, err := RunWithFacts([]*Analyzer{noop}, fset, files, pkg, info, upstream)
	if err != nil {
		t.Fatal(err)
	}
	if exported.Len() != 1 {
		t.Fatalf("exported set lost the imported fact: %d records", exported.Len())
	}
}

func TestObjectKey(t *testing.T) {
	_, _, pkg, _ := typecheck(t, `package p
type T struct{}
func (t *T) M() {}
func F() {}
var V int
`)
	scope := pkg.Scope()
	cases := []struct {
		obj  types.Object
		want string
	}{
		{scope.Lookup("F"), "example.com/p.F"},
		{scope.Lookup("V"), "example.com/p.V"},
		{scope.Lookup("T").Type().(*types.Named).Method(0), "example.com/p.T.M"},
	}
	for _, c := range cases {
		if got := ObjectKey(c.obj); got != c.want {
			t.Errorf("ObjectKey(%v) = %q, want %q", c.obj, got, c.want)
		}
	}
}

func TestBasePath(t *testing.T) {
	if got := BasePath("repro/internal/server [repro/internal/server.test]"); got != "repro/internal/server" {
		t.Fatalf("BasePath test variant = %q", got)
	}
	if got := BasePath("repro/internal/server"); got != "repro/internal/server" {
		t.Fatalf("BasePath plain = %q", got)
	}
}
