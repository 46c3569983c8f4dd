package session

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ecr"
)

// runEquivalence drives phase 2 (screens 6 and 7): the DDA picks two
// schemas, then repeatedly picks one structure from each and edits the
// attribute equivalence classes. rel selects the relationship-set subphase
// (main menu option 4) over the object-class subphase (option 2).
func (s *Session) runEquivalence(rel bool) {
	const phase = "EQUIVALENCE CLASS SPECIFICATION"
	n1, n2, ok := s.pickSchemaPair(phase)
	if !ok {
		return
	}
	s1, s2 := s.ws.Schema(n1), s.ws.Schema(n2)
	for {
		s.io.Display(objectSelectionScreen(phase, s1, s2, rel).Text())
		line, ok := s.io.ReadLine("Enter <#1 #2> or (E)xit : ")
		if !ok {
			return
		}
		if c := choice(line); c == "e" || c == "x" {
			return
		}
		r1, r2, err := pickPair(line, s1, s2, rel)
		if err != nil {
			s.notify(phase, err.Error())
			continue
		}
		s.editEquivalences(r1, r2)
	}
}

// pickPair resolves a "#1 #2" (or "name1 name2") selection against the two
// schemas.
func pickPair(line string, s1, s2 *ecr.Schema, rel bool) (objRef, objRef, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return objRef{}, objRef{}, fmt.Errorf("enter two selections, one per schema")
	}
	r1, err := resolveSelection(fields[0], s1, rel)
	if err != nil {
		return objRef{}, objRef{}, err
	}
	r2, err := resolveSelection(fields[1], s2, rel)
	if err != nil {
		return objRef{}, objRef{}, err
	}
	return r1, r2, nil
}

func resolveSelection(sel string, s *ecr.Schema, rel bool) (objRef, error) {
	if rel {
		rs := s.Relationships
		if n, err := strconv.Atoi(sel); err == nil {
			if n < 1 || n > len(rs) {
				return objRef{}, fmt.Errorf("schema %s has no relationship #%d", s.Name, n)
			}
			r := rs[n-1]
			return objRef{schema: s.Name, name: r.Name, kind: ecr.KindRelationship, rel: r}, nil
		}
		if r := s.Relationship(sel); r != nil {
			return objRef{schema: s.Name, name: r.Name, kind: ecr.KindRelationship, rel: r}, nil
		}
		return objRef{}, fmt.Errorf("schema %s has no relationship %q", s.Name, sel)
	}
	if n, err := strconv.Atoi(sel); err == nil {
		if n < 1 || n > len(s.Objects) {
			return objRef{}, fmt.Errorf("schema %s has no object #%d", s.Name, n)
		}
		o := s.Objects[n-1]
		return objRef{schema: s.Name, name: o.Name, kind: o.Kind, object: o}, nil
	}
	if o := s.Object(sel); o != nil {
		return objRef{schema: s.Name, name: o.Name, kind: o.Kind, object: o}, nil
	}
	return objRef{}, fmt.Errorf("schema %s has no object %q", s.Name, sel)
}

// editEquivalences drives Screen 7 for one structure pair.
func (s *Session) editEquivalences(r1, r2 objRef) {
	const phase = "EQUIVALENCE CLASS SPECIFICATION"
	reg := s.ws.Registry()
	for {
		s.io.Display(equivalenceScreen(reg, r1, r2).Text())
		line, ok := s.io.ReadLine("(A)dd <#1 #2>, (D)elete <1|2 #>, or (E)xit => ")
		if !ok {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch choice(fields[0]) {
		case "a":
			if len(fields) != 3 {
				s.notify(phase, "usage: a <attr# in object1> <attr# in object2>")
				continue
			}
			a1, err1 := attrByIndex(r1, fields[1])
			a2, err2 := attrByIndex(r2, fields[2])
			if err1 != nil || err2 != nil {
				s.notify(phase, firstErr(err1, err2).Error())
				continue
			}
			if err := reg.Declare(r1.attrRef(a1.Name), r2.attrRef(a2.Name)); err != nil {
				s.notify(phase, err.Error())
			}
		case "d":
			if len(fields) != 3 {
				s.notify(phase, "usage: d <1|2> <attr#>")
				continue
			}
			target := r1
			if fields[1] == "2" {
				target = r2
			}
			a, err := attrByIndex(target, fields[2])
			if err != nil {
				s.notify(phase, err.Error())
				continue
			}
			reg.Remove(target.attrRef(a.Name))
		case "e", "x":
			return
		}
	}
}

func attrByIndex(r objRef, sel string) (ecr.Attribute, error) {
	attrs := r.attrs()
	n, err := strconv.Atoi(sel)
	if err == nil {
		if n < 1 || n > len(attrs) {
			return ecr.Attribute{}, fmt.Errorf("%s.%s has no attribute #%d", r.schema, r.name, n)
		}
		return attrs[n-1], nil
	}
	for _, a := range attrs {
		if a.Name == sel {
			return a, nil
		}
	}
	return ecr.Attribute{}, fmt.Errorf("%s.%s has no attribute %q", r.schema, r.name, sel)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
