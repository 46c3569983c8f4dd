package session

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/assertion"
	"repro/internal/resemblance"
)

// runAssertions drives phase 3 (screens 8 and 9): pairs ranked by the
// resemblance function are shown, the DDA enters assertion codes, the tool
// closes the matrix incrementally after each entry and raises the conflict
// screen when a contradiction appears. rel selects the relationship
// subphase (menu option 5) over the object subphase (option 3).
func (s *Session) runAssertions(rel bool) {
	const phase = "ASSERTION SPECIFICATION"
	n1, n2, ok := s.pickSchemaPair(phase)
	if !ok {
		return
	}
	s1, s2 := s.ws.Schema(n1), s.ws.Schema(n2)

	var set *assertion.Engine
	if rel {
		set = s.ws.RelationshipAssertions(n1, n2)
	} else {
		set = s.ws.ObjectAssertions(n1, n2)
	}

	scroll := 0
	for {
		var pairs []resemblance.Pair
		if rel {
			pairs = s.ws.RankRelationships(s1, s2)
		} else {
			pairs = s.ws.RankObjects(s1, s2)
		}
		s.io.Display(assertionCollectionScreen(pairs, set, scroll, rel).Text())
		line, ok := s.io.ReadLine("Enter <#> <assertion 0-5>, (S)croll, (L)egend, (M)atrix, (R)etract <#>, or (E)xit : ")
		if !ok {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch choice(fields[0]) {
		case "s":
			scroll += 5
			if scroll > len(pairs) {
				scroll = 0
			}
			continue
		case "l":
			s.io.Display(legendScreen(phase).Text())
			s.io.ReadLine("Press enter to continue => ")
			continue
		case "m":
			// The Entity Assertion matrix, as the tool stores it:
			// every pair of structures across the two schemas.
			s.io.Display(matrixScreen(phase, set, matrixObjects(pairs)).Text())
			s.io.ReadLine("Press enter to continue => ")
			continue
		case "r":
			if len(fields) != 2 {
				s.notify(phase, "usage: r <pair #>")
				continue
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx < 1 || idx > len(pairs) {
				s.notify(phase, "usage: r <pair #>")
				continue
			}
			p := pairs[idx-1]
			a := assertion.ObjKey{Schema: p.Schema1, Object: p.Object1}
			b := assertion.ObjKey{Schema: p.Schema2, Object: p.Object2}
			res, err := set.Retract(a, b)
			if err != nil {
				s.notify(phase, err.Error())
				continue
			}
			if !res.Found {
				s.notify(phase, fmt.Sprintf("no assertion held between %s and %s", a, b))
				continue
			}
			s.notify(phase, fmt.Sprintf("retracted; %d entries removed, %d re-derived",
				len(res.Removed), len(res.Rederived)))
			continue
		case "e", "x":
			return
		}
		if len(fields) != 2 {
			s.notify(phase, "usage: <pair #> <assertion code 0-5>")
			continue
		}
		idx, err1 := strconv.Atoi(fields[0])
		code, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || idx < 1 || idx > len(pairs) {
			s.notify(phase, "usage: <pair #> <assertion code 0-5>")
			continue
		}
		kind, err := assertion.KindFromCode(code)
		if err != nil {
			s.notify(phase, err.Error())
			continue
		}
		p := pairs[idx-1]
		a := assertion.ObjKey{Schema: p.Schema1, Object: p.Object1}
		b := assertion.ObjKey{Schema: p.Schema2, Object: p.Object2}
		res := set.AssertAndClose(a, b, kind)
		for _, c := range res.Conflicts {
			s.resolveConflict(set, c)
		}
	}
}

// resolveConflict drives the Assertion Conflict Resolution screen
// (Screen 9) for one conflict.
func (s *Session) resolveConflict(set *assertion.Engine, c *assertion.Conflict) {
	const phase = "ASSERTION SPECIFICATION"
	for {
		s.io.Display(conflictResolutionScreen(c).Text())
		line, ok := s.io.ReadLine("Resolve: (K)eep current, (R)eplace with new, (S)kip : ")
		if !ok {
			return
		}
		switch choice(line) {
		case "k", "s", "":
			// Keep the existing assertion; the proposal is dropped.
			return
		case "r":
			if c.Proposed.Kind == assertion.Unspecified {
				// The contradiction came from a composition with
				// no single replacement; the DDA must retract one
				// of the supports instead.
				s.notify(phase, "The derived contradiction has no single replacement; retract one of the supporting assertions.")
				return
			}
			res, err := set.Override(c.Proposed.A, c.Proposed.B, c.Proposed.Kind)
			if err != nil {
				s.notify(phase, err.Error())
				return
			}
			if res.Consistent() {
				return
			}
			c = res.Conflicts[0]
		default:
			s.notify(phase, fmt.Sprintf("unknown choice %q", line))
		}
	}
}

// matrixObjects collects the distinct objects of the ranked pairs in
// first-appearance order — schema 1's objects, then schema 2's — with a
// set-backed dedup so building the matrix view stays linear in the number
// of pairs.
func matrixObjects(pairs []resemblance.Pair) []assertion.ObjKey {
	seen := make(map[assertion.ObjKey]struct{}, 2*len(pairs))
	objs := make([]assertion.ObjKey, 0, 2*len(pairs))
	add := func(k assertion.ObjKey) {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			objs = append(objs, k)
		}
	}
	for _, p := range pairs {
		add(assertion.ObjKey{Schema: p.Schema1, Object: p.Object1})
	}
	for _, p := range pairs {
		add(assertion.ObjKey{Schema: p.Schema2, Object: p.Object2})
	}
	return objs
}
