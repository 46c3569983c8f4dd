package integrate_test

import (
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/integrate"
	"repro/internal/paperex"
	"repro/internal/session"
)

// figure5 runs the paper's running example: integrating sc1 (Figure 3) and
// sc2 (Figure 4) with the equivalences of Screen 7 and the assertions of
// Screen 8, which must produce the integrated schema of Figure 5.
func figure5(t testing.TB) *integrate.Result {
	t.Helper()
	s1, s2 := paperex.Sc1(), paperex.Sc2()
	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := ws.AddSchema(s); err != nil {
			t.Fatalf("AddSchema: %v", err)
		}
	}
	// Screen 7: the equivalence classes. sc1.Student.Name,
	// sc2.Grad_student.Name and sc2.Faculty.Name form one class; the
	// GPAs form another; the Dnames a third; the relationship Since
	// attributes a fourth.
	for _, pair := range [][2]string{
		{"Student.Name", "Grad_student.Name"},
		{"Student.Name", "Faculty.Name"},
		{"Student.GPA", "Grad_student.GPA"},
		{"Department.Dname", "Department.Dname"},
		{"Majors.Since", "Stud_major.Since"},
	} {
		a, err := core.ResolveAttr(s1, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.ResolveAttr(s2, pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.Registry().Declare(a, b); err != nil {
			t.Fatalf("Declare(%s, %s): %v", pair[0], pair[1], err)
		}
	}
	assert := func(eng *assertion.Engine, o1 string, kind assertion.Kind, o2 string) {
		t.Helper()
		res := eng.AssertAndClose(assertion.ObjKey{Schema: "sc1", Object: o1},
			assertion.ObjKey{Schema: "sc2", Object: o2}, kind)
		if !res.Consistent() {
			t.Fatalf("assert %s %s %s: %v", o1, kind, o2, res.Conflicts[0])
		}
	}
	// Screen 8: the assertions. Department equals Department (1),
	// Student contains Grad_student (3), Student and Faculty disjoint
	// but integrable (4).
	objs := ws.ObjectAssertions("sc1", "sc2")
	assert(objs, "Department", assertion.Equals, "Department")
	assert(objs, "Student", assertion.Contains, "Grad_student")
	assert(objs, "Student", assertion.DisjointIntegrable, "Faculty")
	// The relationship subphase: Majors equals Stud_major.
	assert(ws.RelationshipAssertions("sc1", "sc2"), "Majors", assertion.Equals, "Stud_major")
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return res
}

func TestFigure5IntegratedSchema(t *testing.T) {
	res := figure5(t)
	s := res.Schema

	// Figure 5 / Screen 10: Entities(2) E_Department and D_Stud_Facu;
	// Categories(3) Student, Grad_student, Faculty; Relationships(2)
	// E_Stud_Majo and Works.
	var entities, categories []string
	for _, o := range s.Objects {
		if o.Kind == ecr.KindEntity {
			entities = append(entities, o.Name)
		} else {
			categories = append(categories, o.Name)
		}
	}
	wantEntities := map[string]bool{"E_Department": true, "D_Stud_Facu": true}
	if len(entities) != 2 || !wantEntities[entities[0]] || !wantEntities[entities[1]] {
		t.Errorf("entities = %v, want E_Department and D_Stud_Facu", entities)
	}
	wantCategories := map[string]bool{"Student": true, "Grad_student": true, "Faculty": true}
	if len(categories) != 3 {
		t.Errorf("categories = %v, want Student, Grad_student, Faculty", categories)
	}
	for _, c := range categories {
		if !wantCategories[c] {
			t.Errorf("unexpected category %q", c)
		}
	}
	var rels []string
	for _, r := range s.Relationships {
		rels = append(rels, r.Name)
	}
	wantRels := map[string]bool{"E_Stud_Majo": true, "Works": true}
	if len(rels) != 2 || !wantRels[rels[0]] || !wantRels[rels[1]] {
		t.Errorf("relationships = %v, want E_Stud_Majo and Works", rels)
	}

	// Screen 11: Student's parent is D_Stud_Facu, its child Grad_student.
	student := s.Object("Student")
	if student == nil {
		t.Fatal("integrated schema has no Student")
	}
	if len(student.Parents) != 1 || student.Parents[0] != "D_Stud_Facu" {
		t.Errorf("Student.Parents = %v, want [D_Stud_Facu]", student.Parents)
	}
	if kids := s.Children("Student"); len(kids) != 1 || kids[0] != "Grad_student" {
		t.Errorf("Children(Student) = %v, want [Grad_student]", kids)
	}
	if faculty := s.Object("Faculty"); faculty == nil || len(faculty.Parents) != 1 || faculty.Parents[0] != "D_Stud_Facu" {
		t.Errorf("Faculty parents wrong: %+v", faculty)
	}

	// Screens 12a/12b: Student carries the derived attribute D_Name with
	// component attributes sc1.Student.Name and sc2.Grad_student.Name.
	dname, ok := student.Attribute("D_Name")
	if !ok {
		t.Fatalf("Student has no D_Name; attrs = %+v", student.Attributes)
	}
	if len(dname.Components) != 2 {
		t.Fatalf("D_Name components = %v, want 2", dname.Components)
	}
	comps := map[string]bool{}
	for _, c := range dname.Components {
		comps[c.String()] = true
	}
	if !comps["sc1.Student.Name"] || !comps["sc2.Grad_student.Name"] {
		t.Errorf("D_Name components = %v, want sc1.Student.Name and sc2.Grad_student.Name", dname.Components)
	}
	if dname.Domain != "char" || !dname.Key {
		t.Errorf("D_Name domain/key = %s/%v, want char/true", dname.Domain, dname.Key)
	}
	if _, ok := student.Attribute("D_GPA"); !ok {
		t.Errorf("Student should carry derived D_GPA; attrs = %+v", student.Attributes)
	}

	// Grad_student keeps only its extra attribute.
	grad := s.Object("Grad_student")
	if len(grad.Attributes) != 1 || grad.Attributes[0].Name != "Support_type" {
		t.Errorf("Grad_student attrs = %+v, want only Support_type", grad.Attributes)
	}

	// Faculty keeps Name and Rank: attributes are not lifted into the
	// derived superclass D_Stud_Facu (see DESIGN.md), matching the
	// paper's Screen 12 where Student retains D_Name.
	faculty := s.Object("Faculty")
	if _, ok := faculty.Attribute("Name"); !ok {
		t.Errorf("Faculty lost Name: %+v", faculty.Attributes)
	}
	dsf := s.Object("D_Stud_Facu")
	if len(dsf.Attributes) != 0 {
		t.Errorf("D_Stud_Facu should carry no attributes, has %+v", dsf.Attributes)
	}

	// E_Department merges the Dnames into a derived attribute and keeps
	// sc2's Location.
	dept := s.Object("E_Department")
	if _, ok := dept.Attribute("D_Dname"); !ok {
		t.Errorf("E_Department should carry D_Dname; attrs = %+v", dept.Attributes)
	}
	if _, ok := dept.Attribute("Location"); !ok {
		t.Errorf("E_Department should keep Location; attrs = %+v", dept.Attributes)
	}

	// E_Stud_Majo relates the general Student class to E_Department.
	majo := s.Relationship("E_Stud_Majo")
	if majo == nil {
		t.Fatal("no E_Stud_Majo")
	}
	var partNames []string
	for _, p := range majo.Participants {
		partNames = append(partNames, p.Object)
	}
	if len(partNames) != 2 || partNames[0] != "Student" || partNames[1] != "E_Department" {
		t.Errorf("E_Stud_Majo participants = %v, want [Student E_Department]", partNames)
	}
	if _, ok := majo.Attribute("D_Since"); !ok {
		t.Errorf("E_Stud_Majo should carry derived D_Since; attrs = %+v", majo.Attributes)
	}

	// Works copies through against the integrated classes.
	works := s.Relationship("Works")
	if works == nil {
		t.Fatal("no Works")
	}
	for _, p := range works.Participants {
		if p.Object != "Faculty" && p.Object != "E_Department" {
			t.Errorf("Works participant %q, want Faculty or E_Department", p.Object)
		}
	}

	if err := s.Validate(); err != nil {
		t.Errorf("integrated schema invalid: %v", err)
	}
}

func TestFigure5Mappings(t *testing.T) {
	res := figure5(t)
	tab := res.Mappings

	cases := []struct {
		schema, object, want string
	}{
		{"sc1", "Student", "Student"},
		{"sc1", "Department", "E_Department"},
		{"sc2", "Department", "E_Department"},
		{"sc2", "Grad_student", "Grad_student"},
		{"sc2", "Faculty", "Faculty"},
		{"sc1", "Majors", "E_Stud_Majo"},
		{"sc2", "Stud_major", "E_Stud_Majo"},
		{"sc2", "Works", "Works"},
	}
	for _, c := range cases {
		got, ok := tab.TargetObject(ecr.ObjectRef{Schema: c.schema, Object: c.object})
		if !ok || got != c.want {
			t.Errorf("TargetObject(%s.%s) = %q, %v; want %q", c.schema, c.object, got, ok, c.want)
		}
	}

	// Attribute of a category that was lifted into its containing class.
	obj, attr, ok := tab.TargetAttr(ecr.AttrRef{Schema: "sc2", Object: "Grad_student", Attr: "Name"})
	if !ok || obj != "Student" || attr != "D_Name" {
		t.Errorf("TargetAttr(sc2.Grad_student.Name) = %s.%s, %v; want Student.D_Name", obj, attr, ok)
	}
	obj, attr, ok = tab.TargetAttr(ecr.AttrRef{Schema: "sc2", Object: "Grad_student", Attr: "Support_type"})
	if !ok || obj != "Grad_student" || attr != "Support_type" {
		t.Errorf("TargetAttr(sc2.Grad_student.Support_type) = %s.%s, %v", obj, attr, ok)
	}
}

func TestFigure5Clusters(t *testing.T) {
	res := figure5(t)
	// One cluster: {sc1.Student, sc2.Grad_student, sc2.Faculty} plus the
	// Department pair — Departments form their own cluster since they
	// are only related to each other.
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v, want 2", res.Clusters)
	}
	joined := make([]string, len(res.Clusters))
	for i, c := range res.Clusters {
		var parts []string
		for _, k := range c {
			parts = append(parts, k.String())
		}
		joined[i] = strings.Join(parts, ",")
	}
	if joined[0] != "sc1.Student,sc2.Faculty,sc2.Grad_student" {
		t.Errorf("cluster[0] = %s", joined[0])
	}
	if joined[1] != "sc1.Department,sc2.Department" {
		t.Errorf("cluster[1] = %s", joined[1])
	}
}

func TestFigure5Stats(t *testing.T) {
	res := figure5(t)
	st := res.Stats()
	if st.Objects != 5 || st.Relationships != 2 {
		t.Errorf("structure counts = %+v", st)
	}
	// E_Department and E_Stud_Majo.
	if st.EqualsMerged != 2 {
		t.Errorf("EqualsMerged = %d", st.EqualsMerged)
	}
	// D_Stud_Facu.
	if st.DerivedClasses != 1 {
		t.Errorf("DerivedClasses = %d", st.DerivedClasses)
	}
	// Student, Grad_student, Faculty.
	if st.Categories != 3 {
		t.Errorf("Categories = %d", st.Categories)
	}
	// D_Name, D_GPA on Student; D_Dname on E_Department; D_Since on
	// E_Stud_Majo.
	if st.DerivedAttributes != 4 {
		t.Errorf("DerivedAttributes = %d", st.DerivedAttributes)
	}
	if !strings.Contains(st.String(), "derived attributes") {
		t.Errorf("String() = %q", st.String())
	}
}
