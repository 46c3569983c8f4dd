package mapping_test

import (
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/mapping"
	"repro/internal/paperex"
	"repro/internal/session"
)

// paperResult builds the paper's sc1+sc2 integration and returns the
// integrated schema and mapping table.
func paperResult(t testing.TB) (*ecr.Schema, *mapping.Table) {
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
	return res.Schema, res.Mappings
}

func TestTableLookups(t *testing.T) {
	_, tab := paperResult(t)
	got, ok := tab.TargetObject(ecr.ObjectRef{Schema: "sc1", Object: "Department"})
	if !ok || got != "E_Department" {
		t.Errorf("TargetObject = %q, %v", got, ok)
	}
	if _, ok := tab.TargetObject(ecr.ObjectRef{Schema: "sc1", Object: "Nope"}); ok {
		t.Error("unknown object should miss")
	}
	srcs := tab.SourcesOf("E_Department")
	if len(srcs) != 2 || srcs[0].Schema != "sc1" || srcs[1].Schema != "sc2" {
		t.Errorf("SourcesOf = %v", srcs)
	}
	attr, ok := tab.SourceAttr(ecr.ObjectRef{Schema: "sc2", Object: "Department"}, "E_Department", "D_Dname")
	if !ok || attr != "Dname" {
		t.Errorf("SourceAttr = %q, %v", attr, ok)
	}
	if s := tab.String(); !strings.Contains(s, "E_Department") {
		t.Errorf("String missing mapping:\n%s", s)
	}
}

func TestQueryString(t *testing.T) {
	q := mapping.Query{
		Schema:  "sc1",
		Object:  "Student",
		Project: []string{"Name"},
		Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.5"}},
	}
	want := "select Name from sc1.Student where GPA > 3.5"
	if q.String() != want {
		t.Errorf("String() = %q", q.String())
	}
	q2 := mapping.Query{Schema: "s", Object: "O"}
	if q2.String() != "select * from s.O" {
		t.Errorf("String() = %q", q2.String())
	}
}

// TestViewToIntegrated covers the logical database design context: a query
// against view sc1 is rewritten against the integrated schema.
func TestViewToIntegrated(t *testing.T) {
	_, tab := paperResult(t)
	q := mapping.Query{
		Schema:  "sc1",
		Object:  "Student",
		Project: []string{"Name"},
		Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.5"}},
	}
	out, err := mapping.ViewToIntegrated(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema != "INT_sc1_sc2" || out.Object != "Student" {
		t.Errorf("target = %s.%s", out.Schema, out.Object)
	}
	if len(out.Project) != 1 || out.Project[0] != "D_Name" {
		t.Errorf("projection = %v", out.Project)
	}
	if len(out.Where) != 1 || out.Where[0].Attr != "D_GPA" {
		t.Errorf("where = %v", out.Where)
	}
}

func TestViewToIntegratedCategoryAttrLifted(t *testing.T) {
	_, tab := paperResult(t)
	// Grad_student.Name was lifted into Student.D_Name; a view query on
	// Grad_student must still translate.
	q := mapping.Query{
		Schema:  "sc2",
		Object:  "Grad_student",
		Project: []string{"Name", "Support_type"},
	}
	out, err := mapping.ViewToIntegrated(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	if out.Object != "Grad_student" {
		t.Errorf("object = %s", out.Object)
	}
	if out.Project[0] != "D_Name" || out.Project[1] != "Support_type" {
		t.Errorf("projection = %v", out.Project)
	}
}

func TestViewToIntegratedErrors(t *testing.T) {
	_, tab := paperResult(t)
	if _, err := mapping.ViewToIntegrated(mapping.Query{Schema: "zz", Object: "X"}, tab); err == nil {
		t.Error("unknown schema should fail")
	}
	q := mapping.Query{Schema: "sc1", Object: "Student", Project: []string{"Nope"}}
	if _, err := mapping.ViewToIntegrated(q, tab); err == nil {
		t.Error("unknown attribute should fail")
	}
}

// TestIntegratedToComponents covers the global schema design context: a
// query against the global schema fans out to the component databases.
func TestIntegratedToComponents(t *testing.T) {
	s, tab := paperResult(t)
	q := mapping.Query{
		Schema:  "INT_sc1_sc2",
		Object:  "E_Department",
		Project: []string{"D_Dname"},
	}
	subs, skipped, err := mapping.IntegratedToComponents(q, tab, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("skipped = %v", skipped)
	}
	if len(subs) != 2 {
		t.Fatalf("subqueries = %v", subs)
	}
	for _, sub := range subs {
		if sub.Object != "Department" || len(sub.Project) != 1 || sub.Project[0] != "Dname" {
			t.Errorf("subquery = %+v", sub)
		}
	}
}

func TestIntegratedToComponentsDescendants(t *testing.T) {
	s, tab := paperResult(t)
	// Querying Student must also reach sc2.Grad_student (a descendant's
	// source) — its instances are students too.
	q := mapping.Query{Schema: "INT_sc1_sc2", Object: "Student", Project: []string{"D_Name"}}
	subs, _, err := mapping.IntegratedToComponents(q, tab, s)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sub := range subs {
		seen[sub.Schema+"."+sub.Object] = true
	}
	if !seen["sc1.Student"] || !seen["sc2.Grad_student"] {
		t.Errorf("subqueries = %v", subs)
	}
}

func TestIntegratedToComponentsSkipsMissingAttr(t *testing.T) {
	s, tab := paperResult(t)
	// Location exists only in sc2.Department; sc1.Department cannot
	// answer and is skipped with a report.
	q := mapping.Query{Schema: "INT_sc1_sc2", Object: "E_Department", Project: []string{"Location"}}
	subs, skipped, err := mapping.IntegratedToComponents(q, tab, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Schema != "sc2" {
		t.Errorf("subqueries = %v", subs)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "sc1.Department") {
		t.Errorf("skipped = %v", skipped)
	}
}

func TestIntegratedToComponentsWrongSchema(t *testing.T) {
	s, tab := paperResult(t)
	_, _, err := mapping.IntegratedToComponents(mapping.Query{Schema: "other", Object: "X"}, tab, s)
	if err == nil {
		t.Error("wrong schema should fail")
	}
}

func TestRoundTripViewQuery(t *testing.T) {
	s, tab := paperResult(t)
	// view query -> integrated -> back to components must reach the
	// original view among the subqueries with the original attribute.
	q := mapping.Query{Schema: "sc2", Object: "Faculty", Project: []string{"Name"}}
	up, err := mapping.ViewToIntegrated(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	subs, _, err := mapping.IntegratedToComponents(up, tab, s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sub := range subs {
		if sub.Schema == "sc2" && sub.Object == "Faculty" && len(sub.Project) == 1 && sub.Project[0] == "Name" {
			found = true
		}
	}
	if !found {
		t.Errorf("round trip lost the original view: %v", subs)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	_, tab := paperResult(t)
	data, err := mapping.EncodeJSON(tab)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mapping.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Integrated != tab.Integrated || len(back.Objects) != len(tab.Objects) || len(back.Attrs) != len(tab.Attrs) {
		t.Errorf("round trip changed table: %d/%d objects, %d/%d attrs",
			len(back.Objects), len(tab.Objects), len(back.Attrs), len(tab.Attrs))
	}
	got, ok := back.TargetObject(ecr.ObjectRef{Schema: "sc1", Object: "Department"})
	if !ok || got != "E_Department" {
		t.Errorf("lookup after round trip = %q, %v", got, ok)
	}
}

func TestTableDecodeJSONErrors(t *testing.T) {
	if _, err := mapping.DecodeJSON([]byte("{bad")); err == nil {
		t.Error("syntax error should fail")
	}
	if _, err := mapping.DecodeJSON([]byte("{}")); err == nil {
		t.Error("empty table should fail")
	}
}
