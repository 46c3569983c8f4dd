package session

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/ecr"
)

// twoSchemaScript defines minimal schemas a1 (X: K,V) and a2 (Y: K,W) plus
// one relationship in each, then appends the given extra inputs.
func twoSchemaScript(extra ...string) []string {
	base := []string{
		"1",
		"a", "a1",
		"a", "X", "e",
		"a", "K", "int", "y",
		"a", "V", "char", "",
		"e",
		"a", "R1", "r",
		"a", "X", "0,1",
		"a", "X", "0,n", "again",
		"e",
		"a", "W1", "int", "",
		"e",
		"e",
		"a", "a2",
		"a", "Y", "e",
		"a", "K", "int", "y",
		"a", "W", "char", "",
		"e",
		"a", "R2", "r",
		"a", "Y", "0,1",
		"a", "Y", "0,n", "again",
		"e",
		"a", "W2", "int", "",
		"e",
		"e",
		"e",
	}
	return append(base, extra...)
}

func runScript(t *testing.T, inputs []string) (*Workspace, *ScriptIO) {
	t.Helper()
	io := NewScriptIO(inputs...)
	ws := NewWorkspace()
	if err := New(ws, io).Run(); err != nil {
		t.Fatal(err)
	}
	return ws, io
}

func TestEquivalenceByName(t *testing.T) {
	ws, _ := runScript(t, twoSchemaScript(
		"2", "a1", "a2",
		"X Y",   // selection by name instead of number
		"a K K", // declaration by attribute name
		"e", "e",
		"e",
	))
	if !ws.Registry().Equivalent(
		ecr.AttrRef{Schema: "a1", Object: "X", Kind: ecr.KindEntity, Attr: "K"},
		ecr.AttrRef{Schema: "a2", Object: "Y", Kind: ecr.KindEntity, Attr: "K"},
	) {
		t.Error("name-based declaration failed")
	}
}

func TestEquivalenceDeleteSide(t *testing.T) {
	ws, _ := runScript(t, twoSchemaScript(
		"2", "a1", "a2",
		"1 1",
		"a 1 1",
		"d 2 1", // remove side 2's attribute from its class
		"e", "e",
		"e",
	))
	if ws.Registry().Equivalent(
		ecr.AttrRef{Schema: "a1", Object: "X", Kind: ecr.KindEntity, Attr: "K"},
		ecr.AttrRef{Schema: "a2", Object: "Y", Kind: ecr.KindEntity, Attr: "K"},
	) {
		t.Error("deletion did not split the class")
	}
}

func TestEquivalenceUsageErrors(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"2", "a1", "a2",
		"justone",  // bad pair selection
		"",         // dismiss notice
		"1 99",     // out-of-range object
		"",         // dismiss
		"1 1",      // valid pair
		"a 1",      // wrong arity
		"",         // dismiss
		"a 9 1",    // bad attr index
		"",         // dismiss
		"a K nope", // bad attr name
		"",         // dismiss
		"d 1",      // wrong arity
		"",         // dismiss
		"e", "e",
		"e",
	))
	wantNotices := []string{
		"enter two selections",
		"has no object #99",
		"usage: a",
		"has no attribute #9",
		`has no attribute "nope"`,
		"usage: d",
	}
	out := io.Output()
	for _, w := range wantNotices {
		if !strings.Contains(out, w) {
			t.Errorf("missing notice %q", w)
		}
	}
}

func TestRelationshipEquivalenceFlow(t *testing.T) {
	ws, _ := runScript(t, twoSchemaScript(
		"4", "a1", "a2",
		"1 1",
		"a 1 1", // W1 ~ W2
		"e", "e",
		"e",
	))
	if !ws.Registry().Equivalent(
		ecr.AttrRef{Schema: "a1", Object: "R1", Kind: ecr.KindRelationship, Attr: "W1"},
		ecr.AttrRef{Schema: "a2", Object: "R2", Kind: ecr.KindRelationship, Attr: "W2"},
	) {
		t.Error("relationship attribute equivalence failed")
	}
}

func TestRelationshipSelectionByNameAndErrors(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"4", "a1", "a2",
		"R1 R2",
		"e",
		"Zed 1", // unknown relationship by name
		"",
		"9 1", // out of range
		"",
		"e",
		"e",
	))
	out := io.Output()
	if !strings.Contains(out, `has no relationship "Zed"`) {
		t.Error("unknown relationship notice missing")
	}
	if !strings.Contains(out, "has no relationship #9") {
		t.Error("out-of-range relationship notice missing")
	}
}

func TestAssertionFlowUsageErrorsAndLegend(t *testing.T) {
	ws, io := runScript(t, twoSchemaScript(
		"3", "a1", "a2",
		"l", "", // legend, dismiss
		"s",    // scroll
		"zz 1", // bad index
		"",     // dismiss
		"1 9",  // bad code
		"",     // dismiss
		"1",    // wrong arity
		"",     // dismiss
		"1 1",  // X equals Y
		"e",
		"e",
	))
	out := io.Output()
	if !strings.Contains(out, "1 - OB_CL_name_1 'equals' OB_CL_name_2") {
		t.Error("legend not shown")
	}
	if !strings.Contains(out, "unknown assertion code 9") {
		t.Error("bad-code notice missing")
	}
	set := ws.ObjectAssertions("a1", "a2")
	if set.Kind(assertion.ObjKey{Schema: "a1", Object: "X"}, assertion.ObjKey{Schema: "a2", Object: "Y"}) != assertion.Equals {
		t.Error("valid assertion lost")
	}
}

func TestRelationshipAssertionFlow(t *testing.T) {
	ws, _ := runScript(t, twoSchemaScript(
		"5", "a1", "a2",
		"1 1", // R1 equals R2
		"e",
		"e",
	))
	set := ws.RelationshipAssertions("a1", "a2")
	if set.Kind(assertion.ObjKey{Schema: "a1", Object: "R1"}, assertion.ObjKey{Schema: "a2", Object: "R2"}) != assertion.Equals {
		t.Error("relationship assertion lost")
	}
}

func TestResultsUnknownStructureNotifies(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "a2",
		"Ghost c",
		"", // dismiss notice
		"x",
		"e",
	))
	if !strings.Contains(io.Output(), "No structure named Ghost") {
		t.Error("unknown structure notice missing")
	}
}

func TestResultsAttributeViewOfEntity(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "a2",
		"X a", // attribute view directly from Screen 10
		"e",   // leave attribute screen
		"x",
		"e",
	))
	if len(io.ScreensContaining("Attribute Screen")) == 0 {
		t.Error("attribute screen missing")
	}
}

func TestResultsNonDerivedComponentRequest(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "a2",
		"X a",
		"1", // K is not derived -> notice
		"",  // dismiss
		"e",
		"x",
		"e",
	))
	if !strings.Contains(io.Output(), "is not a derived attribute") {
		t.Error("non-derived notice missing")
	}
}

func TestResultsRelationshipAttributeAndEquivalent(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "a2",
		"R1 c", // relationship screen (view code other than 'a')
		"a",    // its attributes
		"e",
		"q", "", // equivalent screen
		"x",
		"x",
		"e",
	))
	if len(io.ScreensContaining("Relationship Screen")) == 0 {
		t.Error("relationship screen missing")
	}
	if len(io.ScreensContaining("Equivalent Screen")) == 0 {
		t.Error("equivalent screen missing")
	}
}

func TestResultsBadSchemaPair(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "nope",
		"e",
	))
	if !strings.Contains(io.Output(), "Unknown or identical schema names") {
		t.Error("bad pair notice missing")
	}
}

func TestResultsIntegrationConflictOffersResolution(t *testing.T) {
	// Two assertions that are individually fine but jointly inconsistent
	// only via closure cannot be built through AssertAndClose (it checks
	// immediately), so simulate by asserting directly into the
	// workspace, then entering task 6.
	ws := NewWorkspace()
	mk := func(name, obj string) *ecr.Schema {
		s := ecr.NewSchema(name)
		if err := s.AddObject(&ecr.ObjectClass{Name: obj, Kind: ecr.KindEntity,
			Attributes: []ecr.Attribute{{Name: "K", Domain: "int", Key: true}}}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := mk("b1", "P")
	if err := s1.AddObject(&ecr.ObjectClass{Name: "Q", Kind: ecr.KindEntity,
		Attributes: []ecr.Attribute{{Name: "K", Domain: "int", Key: true}}}); err != nil {
		t.Fatal(err)
	}
	s2 := mk("b2", "M")
	if err := ws.AddSchema(s1); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSchema(s2); err != nil {
		t.Fatal(err)
	}
	set := ws.ObjectAssertions("b1", "b2")
	// The incremental engine closes on every assert, so a contradiction
	// can no longer be smuggled in unclosed; exercise the integration
	// error path with an intra-schema assertion instead, which the
	// engine accepts (the matrix is schema-agnostic) and integration
	// rejects.
	if err := set.Assert(assertion.ObjKey{Schema: "b1", Object: "P"},
		assertion.ObjKey{Schema: "b2", Object: "M"}, assertion.Equals); err != nil {
		t.Fatal(err)
	}
	if err := set.Assert(assertion.ObjKey{Schema: "b1", Object: "P"},
		assertion.ObjKey{Schema: "b1", Object: "Q"}, assertion.DisjointNonintegrable); err != nil {
		t.Fatal(err)
	}
	io := NewScriptIO(
		"6", "b1", "b2",
		"", // dismiss the integration error notice
		"e",
	)
	if err := New(ws, io).Run(); err != nil {
		t.Fatal(err)
	}
	// The integration error notice appeared (the message is clipped to
	// the screen width, so match a prefix of it).
	out := io.Output()
	if !strings.Contains(out, "assertion between b1.P and b1.Q is within") {
		t.Errorf("no integration outcome shown:\n%s", out)
	}
}

// A conflict on the relationship-set matrix is resolved on that matrix:
// replacing it must not write relationship-set keys into the object-class
// engine.
func TestResultsResolvesRelationshipConflictOnItsEngine(t *testing.T) {
	ws := NewWorkspace()
	for _, ddl := range []string{`
schema b1
entity P { attr K: int key }
entity Q { attr K: int key }
relationship S (P (0,n), Q (0,n)) {}
relationship V (P (0,n), Q (0,n)) {}
`, `
schema b2
entity M { attr K: int key }
entity N { attr K: int key }
relationship T (M (0,n), N (0,n)) {}
relationship W (M (0,n), N (0,n)) {}
`} {
		sc, err := ecr.ParseSchema(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.AddSchema(sc); err != nil {
			t.Fatal(err)
		}
	}
	rels := ws.RelationshipAssertions("b1", "b2")
	k1 := func(o string) assertion.ObjKey { return assertion.ObjKey{Schema: "b1", Object: o} }
	k2 := func(o string) assertion.ObjKey { return assertion.ObjKey{Schema: "b2", Object: o} }
	for _, a := range []struct {
		o1   string
		kind assertion.Kind
		o2   string
	}{
		{"V", assertion.Contains, "W"},
		{"V", assertion.DisjointNonintegrable, "T"},
		{"S", assertion.MayBe, "T"},
		{"S", assertion.Equals, "W"},
	} {
		if err := rels.Assert(k1(a.o1), k2(a.o2), a.kind); err != nil {
			t.Fatal(err)
		}
	}
	if rels.Consistent() {
		t.Fatal("relationship matrix should be conflicted")
	}
	io := NewScriptIO("6", "b1", "b2", "r", "r", "r", "r", "x", "e")
	if err := New(ws, io).Run(); err != nil {
		t.Fatal(err)
	}
	if len(io.ScreensContaining("Conflict")) == 0 {
		t.Fatal("conflict resolution screen missing")
	}
	if !rels.Consistent() {
		t.Errorf("replacing left the relationship matrix conflicted: %v", rels.Conflicts())
	}
	if objs := ws.ObjectAssertions("b1", "b2"); objs.Len() != 0 {
		t.Errorf("object-class engine holds %d entries, want none:\n%s", objs.Len(), objs.Matrix(objs.Objects()))
	}
}

func TestSessionWorkspaceAccessor(t *testing.T) {
	ws := NewWorkspace()
	s := New(ws, NewScriptIO())
	if s.Workspace() != ws {
		t.Error("Workspace() wrong")
	}
}

func TestAssertionMatrixView(t *testing.T) {
	_, io := runScript(t, twoSchemaScript(
		"3", "a1", "a2",
		"1 1",   // X equals Y
		"m", "", // show the Entity Assertion matrix, dismiss
		"e",
		"e",
	))
	screens := io.ScreensContaining("Entity Assertion Matrix")
	if len(screens) == 0 {
		t.Fatal("matrix screen missing")
	}
	if !strings.Contains(screens[0], "a1.X") || !strings.Contains(screens[0], "c1 =") {
		t.Errorf("matrix content wrong:\n%s", screens[0])
	}
}

func TestResultsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	ddl := filepath.Join(dir, "out.ecr")
	maps := filepath.Join(dir, "maps.json")
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "a2",
		"w", ddl, maps,
		"", // dismiss "Wrote ..." notice
		"x",
		"e",
	))
	if len(io.ScreensContaining("Wrote")) == 0 {
		t.Fatal("write confirmation missing")
	}
	data, err := os.ReadFile(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ecr.ParseSchema(string(data)); err != nil {
		t.Errorf("written DDL does not parse: %v", err)
	}
	mdata, err := os.ReadFile(maps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mdata), `"integrated"`) {
		t.Errorf("mappings JSON wrong:\n%.120s", mdata)
	}
}

func TestResultsWriteSchemaOnly(t *testing.T) {
	dir := t.TempDir()
	ddl := filepath.Join(dir, "only.ecr")
	_, io := runScript(t, twoSchemaScript(
		"6", "a1", "a2",
		"w", ddl, "", // skip mappings
		"", // dismiss notice
		"x",
		"e",
	))
	if len(io.ScreensContaining("Wrote "+ddl)) == 0 {
		t.Error("confirmation missing")
	}
	if _, err := os.Stat(ddl); err != nil {
		t.Error(err)
	}
}
