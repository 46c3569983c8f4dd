// Package batch runs an integration non-interactively from a textual
// specification: which two schemas to integrate, the attribute
// equivalences, and the assertions. It is the scripted-DDA counterpart of
// the interactive tool, used by cmd/sit-batch and by the benchmark harness.
//
// Specification format, by example:
//
//	# integrate the paper's running example
//	schemas sc1 sc2
//	name INT_sc1_sc2
//	equiv Student.Name = Grad_student.Name
//	equiv Student.Name = Faculty.Name
//	assert Department 1 Department
//	assert Student 3 Grad_student
//	assert Student 4 Faculty
//	rel-assert Majors 1 Stud_major
//	auto 0.95
//
// "equiv a.b = c.d" resolves a.b against the first schema and c.d against
// the second. "assert O1 <code> O2" states the numbered assertion (the
// codes of the tool's screens: 1 equals, 2 contained-in, 3 contains, 4
// disjoint-integrable, 5 may-be, 0 disjoint-nonintegrable). "auto <t>"
// additionally applies every dictionary-suggested attribute equivalence
// scoring at least t.
package batch

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/ecr"
	"repro/internal/integrate"
	"repro/internal/resemblance"
	"repro/internal/session"
)

// AssertLine is one assertion statement of a spec.
type AssertLine struct {
	Object1 string
	Code    int
	Object2 string
}

// Spec is a parsed integration specification.
type Spec struct {
	Schema1, Schema2 string
	Name             string
	Equivalences     [][2]string
	ObjectAsserts    []AssertLine
	RelAsserts       []AssertLine
	// AutoThreshold > 0 enables dictionary-based suggestion of further
	// attribute equivalences at that score threshold.
	AutoThreshold float64
	// Dict optionally overrides the builtin dictionary used by the
	// auto-suggestion pass (set by the caller, not the spec file).
	Dict *dictionary.Dictionary
}

// ParseSpec reads a specification. '#' comments run to end of line.
func ParseSpec(src string) (*Spec, error) {
	spec := &Spec{}
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("batch: spec line %d: %s", i+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "schemas":
			if len(fields) != 3 {
				return nil, errf("usage: schemas <first> <second>")
			}
			spec.Schema1, spec.Schema2 = fields[1], fields[2]
		case "name":
			if len(fields) != 2 {
				return nil, errf("usage: name <integrated schema name>")
			}
			spec.Name = fields[1]
		case "equiv":
			if len(fields) != 4 || fields[2] != "=" {
				return nil, errf("usage: equiv <obj.attr> = <obj.attr>")
			}
			spec.Equivalences = append(spec.Equivalences, [2]string{fields[1], fields[3]})
		case "assert", "rel-assert":
			if len(fields) != 4 {
				return nil, errf("usage: %s <object1> <code 0-5> <object2>", fields[0])
			}
			code, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, errf("bad assertion code %q", fields[2])
			}
			if _, err := assertion.KindFromCode(code); err != nil {
				return nil, errf("%v", err)
			}
			al := AssertLine{Object1: fields[1], Code: code, Object2: fields[3]}
			if fields[0] == "assert" {
				spec.ObjectAsserts = append(spec.ObjectAsserts, al)
			} else {
				spec.RelAsserts = append(spec.RelAsserts, al)
			}
		case "auto":
			if len(fields) != 2 {
				return nil, errf("usage: auto <threshold>")
			}
			t, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || t <= 0 || t > 1 {
				return nil, errf("bad threshold %q (want 0 < t <= 1)", fields[1])
			}
			spec.AutoThreshold = t
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	if spec.Schema1 == "" || spec.Schema2 == "" {
		return nil, fmt.Errorf("batch: spec names no schema pair (need a 'schemas' line)")
	}
	return spec, nil
}

// Run executes the spec against the given schemas on a fresh
// session.Workspace holding the pair. An assertion naming a structure its
// schema lacks is an error, and the first conflict the closure meets comes
// back as a *assertion.Conflict.
func Run(schemas []*ecr.Schema, spec *Spec) (*integrate.Result, error) {
	find := func(name string) *ecr.Schema {
		for _, s := range schemas {
			if s.Name == name {
				return s
			}
		}
		return nil
	}
	s1, s2 := find(spec.Schema1), find(spec.Schema2)
	if s1 == nil {
		return nil, fmt.Errorf("batch: schema %q not found", spec.Schema1)
	}
	if s2 == nil {
		return nil, fmt.Errorf("batch: schema %q not found", spec.Schema2)
	}
	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if err := ws.AddSchema(s); err != nil {
			return nil, err
		}
	}
	if spec.AutoThreshold > 0 {
		dict := spec.Dict
		if dict == nil {
			dict = dictionary.Builtin()
		}
		cands := resemblance.SuggestEquivalences(s1, s2,
			resemblance.DefaultWeights(), dict, spec.AutoThreshold)
		resemblance.ApplySuggestions(ws.Registry(), cands)
	}
	for _, pair := range spec.Equivalences {
		a, err := core.ResolveAttr(s1, pair[0])
		if err != nil {
			return nil, err
		}
		b, err := core.ResolveAttr(s2, pair[1])
		if err != nil {
			return nil, err
		}
		if err := ws.Registry().Declare(a, b); err != nil {
			return nil, err
		}
	}
	isObject := func(s *ecr.Schema, name string) bool { return s.Object(name) != nil }
	isRel := func(s *ecr.Schema, name string) bool { return s.Relationship(name) != nil }
	if err := assertAll(ws.ObjectAssertions(s1.Name, s2.Name), s1, s2, spec.ObjectAsserts, isObject, "object class"); err != nil {
		return nil, err
	}
	if err := assertAll(ws.RelationshipAssertions(s1.Name, s2.Name), s1, s2, spec.RelAsserts, isRel, "relationship set"); err != nil {
		return nil, err
	}
	return ws.Integrate(s1.Name, s2.Name, spec.Name)
}

// assertAll states each line on the engine in spec order, an object of s1
// against one of s2, and returns the first conflict the closure meets as a
// *assertion.Conflict.
func assertAll(eng *assertion.Engine, s1, s2 *ecr.Schema, lines []AssertLine, has func(*ecr.Schema, string) bool, what string) error {
	for _, a := range lines {
		if !has(s1, a.Object1) {
			return fmt.Errorf("batch: schema %s has no %s %q", s1.Name, what, a.Object1)
		}
		if !has(s2, a.Object2) {
			return fmt.Errorf("batch: schema %s has no %s %q", s2.Name, what, a.Object2)
		}
		kind, _ := assertion.KindFromCode(a.Code)
		res := eng.AssertAndClose(
			assertion.ObjKey{Schema: s1.Name, Object: a.Object1},
			assertion.ObjKey{Schema: s2.Name, Object: a.Object2}, kind)
		if !res.Consistent() {
			return res.Conflicts[0]
		}
	}
	return nil
}
