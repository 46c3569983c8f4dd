package batch

import (
	"testing"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/errtest"
	"repro/internal/paperex"
)

const paperSpec = `
# The paper's running example.
schemas sc1 sc2
name paper

equiv Student.Name = Grad_student.Name
equiv Student.Name = Faculty.Name
equiv Student.GPA = Grad_student.GPA
equiv Department.Dname = Department.Dname
equiv Majors.Since = Stud_major.Since

assert Department 1 Department
assert Student 3 Grad_student
assert Student 4 Faculty
rel-assert Majors 1 Stud_major
`

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(paperSpec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schema1 != "sc1" || spec.Schema2 != "sc2" || spec.Name != "paper" {
		t.Errorf("spec = %+v", spec)
	}
	if len(spec.Equivalences) != 5 || len(spec.ObjectAsserts) != 3 || len(spec.RelAsserts) != 1 {
		t.Errorf("counts = %d/%d/%d", len(spec.Equivalences), len(spec.ObjectAsserts), len(spec.RelAsserts))
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ src, substr string }{
		// Missing or malformed schemas line.
		{"", "no schema pair"},
		{"# only a comment\n\n", "no schema pair"},
		{"name x\nequiv a.b = c.d", "no schema pair"},
		{"schemas a", "usage: schemas"},
		{"schemas a b c", "usage: schemas"},
		// Malformed equiv lines: wrong arity, missing '=', '=' misplaced.
		{"schemas a b\nequiv x y", "usage: equiv"},
		{"schemas a b\nequiv a.b c.d", "usage: equiv"},
		{"schemas a b\nequiv a.b = c.d extra", "usage: equiv"},
		{"schemas a b\nequiv = a.b c.d", "usage: equiv"},
		// Assertion lines: wrong arity, out-of-range and non-numeric codes
		// (both assert and rel-assert take the same shape).
		{"schemas a b\nassert X Y", "usage: assert"},
		{"schemas a b\nassert X 1 Y Z", "usage: assert"},
		{"schemas a b\nrel-assert X Y", "usage: rel-assert"},
		{"schemas a b\nassert X 9 Y", "unknown assertion code"},
		{"schemas a b\nassert X -1 Y", "unknown assertion code"},
		{"schemas a b\nrel-assert X 9 Y", "unknown assertion code"},
		{"schemas a b\nassert X q Y", "bad assertion code"},
		{"schemas a b\nrel-assert X 1.5 Y", "bad assertion code"},
		// Auto thresholds: wrong arity, unparsable, out of (0, 1].
		{"schemas a b\nauto", "usage: auto"},
		{"schemas a b\nauto 0.5 0.6", "usage: auto"},
		{"schemas a b\nauto high", "bad threshold"},
		{"schemas a b\nauto 2", "bad threshold"},
		{"schemas a b\nauto 0", "bad threshold"},
		{"schemas a b\nauto -0.5", "bad threshold"},
		// Unknown directives.
		{"schemas a b\nbogus", "unknown directive"},
		{"schemas a b\nassert-rel X 1 Y", "unknown directive"},
		{"schemas a b\nname", "usage: name"},
		{"schemas a b\nname x y", "usage: name"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.src)
		if !errtest.Contains(err, c.substr) {
			t.Errorf("ParseSpec(%q) = %v, want %q", c.src, err, c.substr)
		}
	}
}

func TestParseSpecErrorReportsLineNumber(t *testing.T) {
	// The bad directive sits on line 4 (comments and blanks still count).
	src := "# header\nschemas a b\n\nbogus line here\n"
	_, err := ParseSpec(src)
	if !errtest.Contains(err, "spec line 4") {
		t.Errorf("ParseSpec = %v, want a 'spec line 4' error", err)
	}
}

func TestParseSpecCommentsAndWhitespace(t *testing.T) {
	// Inline comments are stripped, indentation and blank lines ignored.
	src := "  schemas a b   # the pair\n\n\tname x # trailing\n  # full-line comment\n"
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schema1 != "a" || spec.Schema2 != "b" || spec.Name != "x" {
		t.Errorf("spec = %+v", spec)
	}
}

func TestRunPaperSpec(t *testing.T) {
	spec, err := ParseSpec(paperSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Name != "paper" {
		t.Errorf("name = %q", res.Schema.Name)
	}
	for _, want := range []string{"E_Department", "D_Stud_Facu"} {
		if res.Schema.Object(want) == nil {
			t.Errorf("missing %s", want)
		}
	}
}

func TestRunAutoEquivalences(t *testing.T) {
	spec, err := ParseSpec(`
schemas sc1 sc2
auto 0.9
assert Department 1 Department
assert Student 3 Grad_student
assert Student 4 Faculty
rel-assert Majors 1 Stud_major
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The dictionary-based suggestions recover the paper's equivalences,
	// so the integrated result matches Figure 5's shape.
	student := res.Schema.Object("Student")
	if student == nil {
		t.Fatal("Student missing")
	}
	if _, ok := student.Attribute("D_Name"); !ok {
		t.Errorf("auto equivalences missed Name: %+v", student.Attributes)
	}
}

func TestRunErrors(t *testing.T) {
	spec, err := ParseSpec("schemas nope sc2\nassert A 1 B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec); err == nil {
		t.Error("unknown schema should fail")
	}
	spec2, err := ParseSpec("schemas sc1 sc2\nassert Nope 1 Department")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec2); err == nil {
		t.Error("unknown object should fail")
	}
	spec3, err := ParseSpec("schemas sc1 sc2\nequiv Nope.X = Department.Dname")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec3); err == nil {
		t.Error("unknown equivalence target should fail")
	}
	// Each assertion side must name a structure of its own schema.
	for _, src := range []string{
		"assert Student 1 Nope",
		"assert Student 1 Student", // sc2 has no Student
		"rel-assert Nope 1 Works",
		"rel-assert Majors 1 Nope",
		"rel-assert Student 1 Works", // an object class, not a relationship set
	} {
		spec, err := ParseSpec("schemas sc1 sc2\n" + src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec); !errtest.Contains(err, "has no") {
			t.Errorf("%s: err = %v, want an unknown-structure error", src, err)
		}
	}
}

func TestRunValidatesSchemas(t *testing.T) {
	spec, err := ParseSpec("schemas sc1 bad")
	if err != nil {
		t.Fatal(err)
	}
	bad := ecr.NewSchema("bad")
	bad.Objects = []*ecr.ObjectClass{{Name: "C", Kind: ecr.KindCategory}}
	if _, err := Run([]*ecr.Schema{paperex.Sc1(), bad}, spec); err == nil {
		t.Error("invalid schema should fail")
	}
	same, err := ParseSpec("schemas sc1 sc1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run([]*ecr.Schema{paperex.Sc1()}, same); err == nil {
		t.Error("a schema paired with itself should fail")
	}
}

func TestRunConflictSurfacesAsError(t *testing.T) {
	for _, src := range []string{
		// Direct: the pair already holds "contains".
		"assert Student 3 Grad_student\nassert Student 0 Grad_student",
		// Derived: Department(sc1) = Department(sc2) = Student, which
		// contains Grad_student, yet Department(sc1) is declared disjoint
		// from Grad_student.
		"assert Department 1 Department\nassert Student 3 Grad_student\nassert Department 0 Grad_student\nassert Student 1 Department",
	} {
		spec, err := ParseSpec("schemas sc1 sc2\n" + src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec)
		if _, ok := err.(*assertion.Conflict); !ok {
			t.Errorf("%q: want *assertion.Conflict, got %v", src, err)
		}
	}
}

func TestParseSpecNeverPanics(t *testing.T) {
	inputs := []string{
		"schemas", "equiv", "assert", "rel-assert", "auto",
		"schemas a b\nequiv x =", "schemas a b\nassert x 1",
		"name\nschemas a b", "\x00\x01\x02",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = ParseSpec(src)
		}()
	}
}
