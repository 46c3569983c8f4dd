package session

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/errtest"
	"repro/internal/paperex"
)

func paperWorkspace(t testing.TB) *Workspace {
	t.Helper()
	ws := NewWorkspace()
	if err := ws.AddSchema(paperex.Sc1()); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSchema(paperex.Sc2()); err != nil {
		t.Fatal(err)
	}
	reg := ws.Registry()
	declare := func(o1, a1, o2, a2 string, k1, k2 ecr.Kind) {
		t.Helper()
		if err := reg.Declare(
			ecr.AttrRef{Schema: "sc1", Object: o1, Kind: k1, Attr: a1},
			ecr.AttrRef{Schema: "sc2", Object: o2, Kind: k2, Attr: a2},
		); err != nil {
			t.Fatal(err)
		}
	}
	declare("Student", "Name", "Grad_student", "Name", ecr.KindEntity, ecr.KindEntity)
	declare("Student", "Name", "Faculty", "Name", ecr.KindEntity, ecr.KindEntity)
	declare("Student", "GPA", "Grad_student", "GPA", ecr.KindEntity, ecr.KindEntity)
	declare("Department", "Dname", "Department", "Dname", ecr.KindEntity, ecr.KindEntity)
	declare("Majors", "Since", "Stud_major", "Since", ecr.KindRelationship, ecr.KindRelationship)

	objs := ws.ObjectAssertions("sc1", "sc2")
	for _, a := range []struct {
		o1 string
		k  assertion.Kind
		o2 string
	}{
		{"Department", assertion.Equals, "Department"},
		{"Student", assertion.Contains, "Grad_student"},
		{"Student", assertion.DisjointIntegrable, "Faculty"},
	} {
		if err := objs.Assert(
			assertion.ObjKey{Schema: "sc1", Object: a.o1},
			assertion.ObjKey{Schema: "sc2", Object: a.o2}, a.k); err != nil {
			t.Fatal(err)
		}
	}
	rels := ws.RelationshipAssertions("sc1", "sc2")
	if err := rels.Assert(
		assertion.ObjKey{Schema: "sc1", Object: "Majors"},
		assertion.ObjKey{Schema: "sc2", Object: "Stud_major"},
		assertion.Equals); err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestWorkspaceAddRemove(t *testing.T) {
	ws := NewWorkspace()
	if err := ws.AddSchema(paperex.Sc1()); err != nil {
		t.Fatal(err)
	}
	// sc1 has 4 attributes, all registered for equivalence declaration.
	if got := ws.Registry().Len(); got != 4 {
		t.Errorf("registered attributes = %d, want 4", got)
	}
	if err := ws.AddSchema(paperex.Sc1()); err == nil {
		t.Error("duplicate schema should fail")
	}
	if err := ws.AddSchema(ecr.NewSchema("")); err == nil {
		t.Error("unnamed schema should fail")
	}
	if !ws.RemoveSchema("sc1") || ws.RemoveSchema("sc1") {
		t.Error("remove semantics wrong")
	}
}

func TestWorkspaceRemoveDropsAssertions(t *testing.T) {
	ws := paperWorkspace(t)
	ws.RemoveSchema("sc2")
	if ws.ObjectAssertions("sc1", "sc2").Len() != 0 {
		t.Error("assertions survived schema removal")
	}
}

func TestWorkspaceIntegrate(t *testing.T) {
	ws := paperWorkspace(t)
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Name != "INT_sc1_sc2" {
		t.Errorf("default name = %q", res.Schema.Name)
	}
	if res.Schema.Object("E_Department") == nil {
		t.Error("E_Department missing")
	}
	named, err := ws.Integrate("sc1", "sc2", "custom")
	if err != nil {
		t.Fatal(err)
	}
	if named.Schema.Name != "custom" {
		t.Errorf("name = %q", named.Schema.Name)
	}
}

// TestWorkspaceIntegrateAndCache: the workspace caches no result between
// calls, so an edit shows in the next integration without any
// invalidation step.
func TestWorkspaceIntegrateAndCache(t *testing.T) {
	ws := paperWorkspace(t)
	before, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatal(err)
	}
	if before.Schema.Object("E_Department") == nil {
		t.Fatal("E_Department missing")
	}
	if _, err := ws.ObjectAssertions("sc1", "sc2").Retract(
		assertion.ObjKey{Schema: "sc1", Object: "Department"},
		assertion.ObjKey{Schema: "sc2", Object: "Department"}); err != nil {
		t.Fatal(err)
	}
	after, err := ws.Integrate("sc2", "sc1", "") // the pair is unordered
	if err != nil {
		t.Fatal(err)
	}
	if after.Schema.Object("E_Department") != nil {
		t.Error("integration still merges Department after the retraction")
	}
	if _, err := ws.Integrate("sc1", "nope", ""); err == nil {
		t.Error("unknown schema should fail")
	}
}

func TestWorkspaceRanksPairs(t *testing.T) {
	ws := paperWorkspace(t)
	s1, s2 := ws.Schema("sc1"), ws.Schema("sc2")
	objs := ws.RankObjects(s1, s2)
	if len(objs) != 6 {
		t.Errorf("object pairs = %d", len(objs))
	}
	if objs[0].Object1 != "Student" || objs[0].Object2 != "Grad_student" {
		t.Errorf("top pair = %+v", objs[0])
	}
	if rels := ws.RankRelationships(s1, s2); len(rels) != 2 {
		t.Errorf("relationship pairs = %d", len(rels))
	}
}

func TestWorkspaceSaveLoadRoundTrip(t *testing.T) {
	ws := paperWorkspace(t)
	path := filepath.Join(t.TempDir(), "workspace.json")
	if err := ws.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Schemas()) != 2 {
		t.Fatalf("schemas = %d", len(back.Schemas()))
	}
	// Equivalences survive.
	if !back.Registry().Equivalent(
		ecr.AttrRef{Schema: "sc1", Object: "Student", Kind: ecr.KindEntity, Attr: "Name"},
		ecr.AttrRef{Schema: "sc2", Object: "Faculty", Kind: ecr.KindEntity, Attr: "Name"},
	) {
		t.Error("equivalences lost")
	}
	// Assertions survive.
	got := back.ObjectAssertions("sc1", "sc2").Kind(
		assertion.ObjKey{Schema: "sc1", Object: "Student"},
		assertion.ObjKey{Schema: "sc2", Object: "Grad_student"},
	)
	if got != assertion.Contains {
		t.Errorf("assertion after load = %v", got)
	}
	// The loaded workspace must produce the same integrated schema.
	a, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatal(err)
	}
	if ecr.FormatSchema(a.Schema) != ecr.FormatSchema(b.Schema) {
		t.Error("integration differs after save/load")
	}
}

// Marshal writes the pairs in the order of their joined "a|b" names, so
// (sc10, sc2) precedes (sc1, sc2): snapshot bytes do not depend on the
// workspace's key type.
func TestMarshalKeepsPairOrder(t *testing.T) {
	ws := NewWorkspace()
	for _, name := range []string{"sc1", "sc10", "sc2"} {
		if err := ws.AddSchema(ecr.NewSchema(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s1 := range []string{"sc1", "sc10"} {
		if err := ws.ObjectAssertions(s1, "sc2").Assert(
			assertion.ObjKey{Schema: s1, Object: "X"},
			assertion.ObjKey{Schema: "sc2", Object: "Y"}, assertion.Equals); err != nil {
			t.Fatal(err)
		}
	}
	data, err := Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var st storedWorkspace
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range st.ObjAssertions {
		got = append(got, a.SchemaA)
	}
	if strings.Join(got, " ") != "sc10 sc1" {
		t.Errorf("assertion order by schema = %v, want [sc10 sc1]", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); !errtest.Contains(err, "decode") {
		t.Errorf("err = %v", err)
	}
}

func TestPairKey(t *testing.T) {
	if pairOf("b", "a") != pairOf("a", "b") {
		t.Error("pairOf not symmetric")
	}
	if p := pairOf("a", "b"); !p.has("a") || !p.has("b") {
		t.Error("pair misses members")
	}
	if pairOf("aa", "b").has("a") {
		t.Error("pair matched a prefix")
	}
}

// A schema name may contain '|', so no two pairs may share the state of
// one: (a|b, c) and (a, b|c) are different pairs, and removing schema b
// touches neither.
func TestPairKeysDoNotCollideOnPipe(t *testing.T) {
	ws := NewWorkspace()
	for _, name := range []string{"a|b", "c", "a", "b|c", "b"} {
		if err := ws.AddSchema(ecr.NewSchema(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.ObjectAssertions("a|b", "c").Assert(
		assertion.ObjKey{Schema: "a|b", Object: "X"},
		assertion.ObjKey{Schema: "c", Object: "Y"}, assertion.Equals); err != nil {
		t.Fatal(err)
	}
	if n := ws.ObjectAssertions("a", "b|c").Len(); n != 0 {
		t.Errorf("pair (a, b|c) holds %d entries of pair (a|b, c)", n)
	}
	ws.RemoveSchema("b")
	if n := ws.ObjectAssertions("a|b", "c").Len(); n != 1 {
		t.Errorf("removing schema b left pair (a|b, c) with %d entries, want 1", n)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestSaveErrorPropagates(t *testing.T) {
	ws := paperWorkspace(t)
	if err := ws.Save(filepath.Join(t.TempDir(), "missing-dir", "ws.json")); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestSessionRunSavesOnExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.json")
	io := NewScriptIO("e")
	ws := paperWorkspace(t)
	s := New(ws, io)
	s.SavePath = path
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("workspace not saved: %v", err)
	}
}

func TestSessionRunSavesOnEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.json")
	io := NewScriptIO() // immediate exhaustion
	s := New(paperWorkspace(t), io)
	s.SavePath = path
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("workspace not saved on EOF: %v", err)
	}
}
