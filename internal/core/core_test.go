package core

import (
	"testing"

	"repro/internal/ecr"
	"repro/internal/errtest"
	"repro/internal/paperex"
)

// TestDeclareEquivalentErrors: an equivalence declaration fails exactly
// when one of its "object.attribute" references does not resolve.
func TestDeclareEquivalentErrors(t *testing.T) {
	s1, s2 := paperex.Sc1(), paperex.Sc2()
	cases := []struct {
		s      *ecr.Schema
		ref    string
		substr string
	}{
		{s1, "Student", "want object.attribute"},
		{s1, "Student.", "want object.attribute"},
		{s1, ".Name", "want object.attribute"},
		{s1, "Student.Nope", "no attribute"},
		{s1, "Nope.Name", "no structure"},
		{s2, "Grad_student.Nope", "no attribute"},
		{s1, "Majors.Nope", "no attribute"},
	}
	for _, c := range cases {
		_, err := ResolveAttr(c.s, c.ref)
		if !errtest.Contains(err, c.substr) {
			t.Errorf("ResolveAttr(%s, %q) = %v, want %q", c.s.Name, c.ref, err, c.substr)
		}
	}
}

func TestResolveAttr(t *testing.T) {
	s := paperex.Sc1()
	ref, err := ResolveAttr(s, "Student.Name")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Schema != "sc1" || ref.Object != "Student" || ref.Attr != "Name" || ref.Kind != ecr.KindEntity {
		t.Errorf("ref = %+v", ref)
	}
	ref, err = ResolveAttr(s, "Majors.Since")
	if err != nil || ref.Kind != ecr.KindRelationship {
		t.Errorf("relationship ref = %+v, %v", ref, err)
	}
}
