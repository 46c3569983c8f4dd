package session

import (
	"os"
	"strconv"
	"strings"

	"repro/internal/ecr"
	"repro/internal/integrate"
	"repro/internal/mapping"
)

// runResults drives phase 4 (main menu option 6): integrate a schema pair
// and browse the result through the screen hierarchy of Figure 6 —
// Object Class Screen at the root, Entity / Category / Relationship /
// Attribute screens below it, Component Attribute, Equivalent and
// Participating Objects screens at the leaves.
func (s *Session) runResults() {
	const phase = "INTEGRATED SCHEMA"
	n1, n2, ok := s.pickSchemaPair(phase)
	if !ok {
		return
	}
	res, err := s.ws.Integrate(n1, n2, "")
	if err != nil {
		if ie, isIE := err.(*integrate.Error); isIE && len(ie.Conflicts) > 0 {
			// Integration reports the first inconsistent matrix, object
			// classes before relationship sets; resolve on that engine.
			set := s.ws.ObjectAssertions(n1, n2)
			if set.Consistent() {
				set = s.ws.RelationshipAssertions(n1, n2)
			}
			for _, c := range ie.Conflicts {
				s.resolveConflict(set, c)
			}
			res, err = s.ws.Integrate(n1, n2, "")
		}
		if err != nil {
			s.notify(phase, err.Error())
			return
		}
	}
	s.browseSchema(res)
}

// browseSchema runs the Object Class Screen loop (Screen 10).
func (s *Session) browseSchema(res *integrate.Result) {
	sc := res.Schema
	for {
		s.io.Display(objectClassScreen(sc).Text())
		line, ok := s.io.ReadLine("Object class name and view (e.g. 'Student c'), (W)rite files, or e<x>it => ")
		if !ok {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if c := choice(fields[0]); (c == "x" || c == "e") && len(fields) == 1 {
			return
		}
		if c := choice(fields[0]); c == "w" && len(fields) == 1 {
			s.writeResult(res)
			continue
		}
		name := fields[0]
		view := "c"
		if len(fields) > 1 {
			view = choice(fields[1])
		}
		switch {
		case sc.Object(name) != nil:
			o := sc.Object(name)
			switch view {
			case "a":
				s.browseAttributes(sc, name, o.Kind.Word(), o.Attributes)
			default:
				s.browseObject(sc, o)
			}
		case sc.Relationship(name) != nil:
			r := sc.Relationship(name)
			switch view {
			case "a":
				s.browseAttributes(sc, name, "relationship", r.Attributes)
			default:
				s.browseRelationship(sc, r)
			}
		default:
			s.notify("INTEGRATED SCHEMA", "No structure named "+name)
		}
	}
}

// writeResult saves the integrated schema (ECR DDL) and the mappings
// (JSON) to files named by the DDA — the tool's output feeding the next
// design tool, per the paper's future-work pipeline.
func (s *Session) writeResult(res *integrate.Result) {
	const phase = "INTEGRATED SCHEMA"
	path, ok := s.readNonEmpty("Write integrated schema DDL to file => ")
	if !ok {
		return
	}
	if err := os.WriteFile(path, []byte(ecr.FormatSchema(res.Schema)), 0o644); err != nil {
		s.notify(phase, err.Error())
		return
	}
	mapPath, ok := s.io.ReadLine("Write mappings JSON to file (empty to skip) => ")
	if !ok {
		return
	}
	mapPath = strings.TrimSpace(mapPath)
	if mapPath == "" {
		s.notify(phase, "Wrote "+path)
		return
	}
	data, err := mapping.EncodeJSON(res.Mappings)
	if err != nil {
		s.notify(phase, err.Error())
		return
	}
	if err := os.WriteFile(mapPath, data, 0o644); err != nil {
		s.notify(phase, err.Error())
		return
	}
	s.notify(phase, "Wrote "+path+" and "+mapPath)
}

// browseObject shows the Entity or Category Screen (Screen 11) and its
// sub-screens.
func (s *Session) browseObject(sc *ecr.Schema, o *ecr.ObjectClass) {
	for {
		s.io.Display(categoryScreen(sc, o).Text())
		line, ok := s.io.ReadLine("<A>ttributes, <Q>uivalent objects, or e<x>it => ")
		if !ok {
			return
		}
		switch choice(line) {
		case "a":
			s.browseAttributes(sc, o.Name, o.Kind.Word(), o.Attributes)
		case "q":
			s.io.Display(equivalentScreen(o.Name, o.Sources).Text())
			s.io.ReadLine("Press enter to continue => ")
		case "e", "x":
			return
		}
	}
}

// browseRelationship shows the Relationship Screen and its sub-screens.
func (s *Session) browseRelationship(sc *ecr.Schema, r *ecr.RelationshipSet) {
	for {
		s.io.Display(relationshipScreen(sc, r).Text())
		line, ok := s.io.ReadLine("<A>ttributes, <P>articipating objects, <Q>uivalent objects, or e<x>it => ")
		if !ok {
			return
		}
		switch choice(line) {
		case "a":
			s.browseAttributes(sc, r.Name, "relationship", r.Attributes)
		case "p":
			s.io.Display(participatingObjectsScreen(r).Text())
			s.io.ReadLine("Press enter to continue => ")
		case "q":
			s.io.Display(equivalentScreen(r.Name, r.Sources).Text())
			s.io.ReadLine("Press enter to continue => ")
		case "e", "x":
			return
		}
	}
}

// browseAttributes shows the Attribute Screen, and for a derived attribute
// walks its Component Attribute Screens (Screens 12a, 12b, ...).
func (s *Session) browseAttributes(sc *ecr.Schema, owner, kindWord string, attrs []ecr.Attribute) {
	for {
		s.io.Display(attributeScreen(owner, kindWord, attrs).Text())
		line, ok := s.io.ReadLine("Enter <#> for components, or (E)xit : ")
		if !ok {
			return
		}
		c := choice(line)
		if c == "e" || c == "x" {
			return
		}
		n, err := strconv.Atoi(c)
		if err != nil || n < 1 || n > len(attrs) {
			continue
		}
		a := attrs[n-1]
		if !a.Derived() {
			s.notify("INTEGRATED SCHEMA", a.Name+" is not a derived attribute")
			continue
		}
		for i, comp := range a.Components {
			s.io.Display(componentAttributeScreen(owner, kindWord, a, comp, i+1, len(a.Components)).Text())
			line, ok := s.io.ReadLine("Press any key to continue, or (Q)uit => ")
			if !ok || choice(line) == "q" {
				break
			}
		}
	}
}
