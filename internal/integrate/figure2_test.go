package integrate_test

import (
	"testing"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/integrate"
	"repro/internal/paperex"
	"repro/internal/session"
)

// integratePair runs a single-pair integration with a Name equivalence (and
// any further pairs given) and one assertion between the sole object of each
// schema.
func integratePair(t testing.TB, s1, s2 *ecr.Schema, kind assertion.Kind, equivPairs ...[2]string) *integrate.Result {
	t.Helper()
	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := ws.AddSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range equivPairs {
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
	o1 := assertion.ObjKey{Schema: s1.Name, Object: s1.Objects[0].Name}
	o2 := assertion.ObjKey{Schema: s2.Name, Object: s2.Objects[0].Name}
	if res := ws.ObjectAssertions(s1.Name, s2.Name).AssertAndClose(o1, o2, kind); !res.Consistent() {
		t.Fatal(res.Conflicts[0])
	}
	res, err := ws.Integrate(s1.Name, s2.Name, "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFigure2aEquals: identical domains merge into E_Department.
func TestFigure2aEquals(t *testing.T) {
	s1, s2 := paperex.Fig2aSchemas()
	res := integratePair(t, s1, s2, assertion.Equals,
		[2]string{"Department.Dname", "Department.Dname"})
	s := res.Schema
	dept := s.Object("E_Department")
	if dept == nil {
		t.Fatalf("no E_Department; objects: %v", names(s))
	}
	if dept.Kind != ecr.KindEntity || len(dept.Parents) != 0 {
		t.Errorf("E_Department = %+v", dept)
	}
	if len(s.Objects) != 1 {
		t.Errorf("objects = %v, want only E_Department", names(s))
	}
	if _, ok := dept.Attribute("D_Dname"); !ok {
		t.Errorf("merged key attribute missing: %+v", dept.Attributes)
	}
	if _, ok := dept.Attribute("Budget"); !ok {
		t.Error("Budget lost")
	}
	if _, ok := dept.Attribute("Chair"); !ok {
		t.Error("Chair lost")
	}
	if len(dept.Sources) != 2 {
		t.Errorf("sources = %v", dept.Sources)
	}
}

// TestFigure2bContains: Student contains Grad_student; the contained class
// becomes a category of the containing class.
func TestFigure2bContains(t *testing.T) {
	s1, s2 := paperex.Fig2bSchemas()
	res := integratePair(t, s1, s2, assertion.Contains,
		[2]string{"Student.Name", "Grad_student.Name"})
	s := res.Schema
	student := s.Object("Student")
	grad := s.Object("Grad_student")
	if student == nil || grad == nil {
		t.Fatalf("objects = %v", names(s))
	}
	if student.Kind != ecr.KindEntity {
		t.Errorf("Student kind = %v", student.Kind)
	}
	if grad.Kind != ecr.KindCategory || len(grad.Parents) != 1 || grad.Parents[0] != "Student" {
		t.Errorf("Grad_student = %+v", grad)
	}
	// Shared Name lifted into Student as a derived attribute.
	if _, ok := student.Attribute("D_Name"); !ok {
		t.Errorf("Student attrs = %+v", student.Attributes)
	}
	if _, ok := grad.Attribute("Support_type"); !ok {
		t.Errorf("Grad_student attrs = %+v", grad.Attributes)
	}
	if len(grad.Attributes) != 1 {
		t.Errorf("Grad_student should keep only Support_type: %+v", grad.Attributes)
	}
}

// TestFigure2cOverlap: overlapping domains derive D_Grad_Inst with both
// classes as its categories.
func TestFigure2cOverlap(t *testing.T) {
	s1, s2 := paperex.Fig2cSchemas()
	res := integratePair(t, s1, s2, assertion.MayBe,
		[2]string{"Grad_student.Name", "Instructor.Name"})
	s := res.Schema
	d := s.Object("D_Grad_Inst")
	if d == nil {
		t.Fatalf("no D_Grad_Inst; objects = %v", names(s))
	}
	if d.Kind != ecr.KindEntity || len(d.Attributes) != 0 {
		t.Errorf("derived class = %+v", d)
	}
	for _, name := range []string{"Grad_student", "Instructor"} {
		o := s.Object(name)
		if o == nil || o.Kind != ecr.KindCategory || len(o.Parents) != 1 || o.Parents[0] != "D_Grad_Inst" {
			t.Errorf("%s = %+v", name, o)
		}
		// Children keep their attributes (no lifting into derived
		// superclasses).
		if _, ok := o.Attribute("Name"); !ok {
			t.Errorf("%s lost Name: %+v", name, o.Attributes)
		}
	}
}

// TestFigure2dDisjointIntegrable: Secretary and Engineer derive D_Secr_Engi
// (the concept of employee).
func TestFigure2dDisjointIntegrable(t *testing.T) {
	s1, s2 := paperex.Fig2dSchemas()
	res := integratePair(t, s1, s2, assertion.DisjointIntegrable,
		[2]string{"Secretary.Name", "Engineer.Name"})
	s := res.Schema
	d := s.Object("D_Secr_Engi")
	if d == nil {
		t.Fatalf("no D_Secr_Engi; objects = %v", names(s))
	}
	for _, name := range []string{"Secretary", "Engineer"} {
		o := s.Object(name)
		if o == nil || len(o.Parents) != 1 || o.Parents[0] != "D_Secr_Engi" {
			t.Errorf("%s = %+v", name, o)
		}
	}
	if len(res.Clusters) != 1 {
		t.Errorf("clusters = %v", res.Clusters)
	}
}

// TestFigure2eDisjointNonintegrable: the classes stay separate entity sets.
func TestFigure2eDisjointNonintegrable(t *testing.T) {
	s1, s2 := paperex.Fig2eSchemas()
	res := integratePair(t, s1, s2, assertion.DisjointNonintegrable,
		[2]string{"Under_Grad_Student.Name", "Full_Professor.Name"})
	s := res.Schema
	if len(s.Objects) != 2 {
		t.Fatalf("objects = %v", names(s))
	}
	for _, name := range []string{"Under_Grad_Student", "Full_Professor"} {
		o := s.Object(name)
		if o == nil || o.Kind != ecr.KindEntity || len(o.Parents) != 0 {
			t.Errorf("%s = %+v", name, o)
		}
	}
	// Disjoint-nonintegrable pairs form no cluster.
	if len(res.Clusters) != 0 {
		t.Errorf("clusters = %v", res.Clusters)
	}
}

func names(s *ecr.Schema) []string {
	var out []string
	for _, o := range s.Objects {
		out = append(out, o.Name)
	}
	for _, r := range s.Relationships {
		out = append(out, r.Name)
	}
	return out
}
