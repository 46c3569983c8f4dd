package assertion

import "sort"

// CloseResult reports what a closure pass did: the entries it derived and
// the conflicts it found. A matrix is consistent when Conflicts is empty.
type CloseResult struct {
	Derived   []Entry
	Conflicts []*Conflict
}

// Consistent reports whether the closure found no contradictions.
func (r CloseResult) Consistent() bool { return len(r.Conflicts) == 0 }

// Close computes the transitive closure of the matrix: for every pair of
// entries sharing a middle object (A~B, B~C) it composes the domain
// relations. When the composition admits exactly one relation and the pair
// (A, C) has no entry, the assertion is derived and added (with its trace).
// When the pair already has an entry whose relation the composition rules
// out, a Conflict is recorded — this is how the tool populates the
// Assertion Conflict Resolution screen. Derivation runs to fixpoint.
//
// Conflicts do not stop the pass; every conflict discoverable from the
// current entries is reported so the DDA can review them together. Each
// conflicting (pair, proposal) combination is reported once.
//
// After the fixpoint, every derived entry's trace is rewritten to the
// canonical derivation — the path through the key-smallest supporting
// middle — so the output is independent of discovery order. The
// incremental Engine produces the same canonical traces, which is what
// makes the two byte-comparable.
func (s *Set) Close() CloseResult { return s.close(nil) }

// close runs the closure fixpoint. When supports is non-nil it is filled
// with the full, key-sorted support-middle set of every derived entry —
// the Engine's rebuild path uses this to restore its support counts.
func (s *Set) close(supports map[pairID][]int32) CloseResult {
	var result CloseResult
	seenConflict := map[string]bool{}

	// The middle objects are fixed for the whole fixpoint: derivation only
	// ever connects objects that already have entries, so no new object
	// can become a middle mid-close.
	middles := s.objectIDs()
	for s.closeOnce(middles, &result, seenConflict) {
	}
	sort.Slice(result.Derived, func(i, j int) bool {
		if result.Derived[i].A != result.Derived[j].A {
			return lessKey(result.Derived[i].A, result.Derived[j].A)
		}
		return lessKey(result.Derived[i].B, result.Derived[j].B)
	})
	s.canonicalizeTraces(&result, supports)
	return result
}

// closeOnce performs one pass over all two-step paths, returning whether it
// derived anything new.
func (s *Set) closeOnce(middles []int32, result *CloseResult, seenConflict map[string]bool) bool {
	derivedAny := false

	for _, b := range middles {
		// The posting list is already key-sorted; deriving (a, c) never
		// touches adj[b], so the slice is stable for this middle's scan.
		around := s.adj[b]
		for i := 0; i < len(around); i++ {
			a := around[i]
			r1 := s.relAt(a, b)
			if r1 == relNone {
				continue
			}
			for _, c := range around[i+1:] {
				r2 := s.relAt(b, c)
				if r2 == relNone {
					continue
				}
				possible := Compose(r1, r2)
				existing := s.relAt(a, c)
				ka, kb, kc := s.keys[a], s.keys[b], s.keys[c]
				if existing != relNone {
					if !possible.Has(existing) {
						sig := ka.String() + "|" + kc.String()
						if rel, ok := possible.Single(); ok {
							sig += "|" + rel.String()
						}
						if !seenConflict[sig] {
							seenConflict[sig] = true
							held, _ := s.Entry(ka, kc)
							proposed := Statement{A: ka, B: kc, Kind: Unspecified}
							if rel, ok := possible.Single(); ok {
								proposed.Kind = rel.Kind()
							}
							result.Conflicts = append(result.Conflicts, &Conflict{
								Existing:        held,
								Proposed:        proposed,
								ProposedDerived: true,
								Trace: []Statement{
									{A: ka, B: kb, Kind: s.kindAt(a, b)},
									{A: kb, B: kc, Kind: s.kindAt(b, c)},
								},
							})
						}
					}
					continue
				}
				rel, ok := possible.Single()
				if !ok {
					continue
				}
				// around is key-sorted, so ka < kc and the derived entry
				// is already in canonical orientation.
				e := &Entry{
					Statement: Statement{A: ka, B: kc, Kind: rel.Kind()},
					Derived:   true,
					Trace: []Statement{
						{A: ka, B: kb, Kind: s.kindAt(a, b)},
						{A: kb, B: kc, Kind: s.kindAt(b, c)},
					},
				}
				s.put(e)
				result.Derived = append(result.Derived, *e)
				derivedAny = true
			}
		}
	}
	return derivedAny
}

// supportMiddles returns the ids of every middle object whose two-step path
// currently derives the relation held for pid, sorted by key order. The
// first element is the canonical trace middle.
func (s *Set) supportMiddles(pid pairID) []int32 {
	e, ok := s.entries[pid]
	if !ok {
		return nil
	}
	i, j := unpackIDs(pid)
	aID, bID := orientIDs(s, i, j)
	mids, _, _ := s.supportScan(aID, bID, e.Kind.Rel())
	return mids
}

// supportScan walks the common neighbors of aID and bID (both posting lists
// are key-sorted, so this is a linear merge) collecting the middles whose
// composition derives a single relation from aID toward bID. When want is
// not relNone only matching middles count; otherwise the relation is taken
// from the first singleton found, and agree reports whether all singletons
// agreed (they always do in a conflict-free matrix).
func (s *Set) supportScan(aID, bID int32, want Rel) (mids []int32, rel Rel, agree bool) {
	agree = true
	rel = want
	la, lb := s.adj[aID], s.adj[bID]
	x, y := 0, 0
	for x < len(la) && y < len(lb) {
		switch {
		case la[x] == lb[y]:
			m := la[x]
			x++
			y++
			if m == aID || m == bID {
				continue
			}
			r1 := s.relAt(aID, m)
			r2 := s.relAt(m, bID)
			if r1 == relNone || r2 == relNone {
				continue
			}
			single, ok := Compose(r1, r2).Single()
			if !ok {
				continue
			}
			if rel == relNone {
				rel = single
			}
			if single != rel {
				agree = false
				continue
			}
			mids = append(mids, m)
		case lessKey(s.keys[la[x]], s.keys[lb[y]]):
			x++
		default:
			y++
		}
	}
	return mids, rel, agree
}

// orientIDs returns the pair's ids in canonical (key) order.
func orientIDs(s *Set, i, j int32) (int32, int32) {
	if lessKey(s.keys[j], s.keys[i]) {
		return j, i
	}
	return i, j
}

// traceVia builds the canonical two-statement trace for the pair through
// the given middle.
func (s *Set) traceVia(pid pairID, m int32) []Statement {
	i, j := unpackIDs(pid)
	aID, bID := orientIDs(s, i, j)
	return []Statement{
		{A: s.keys[aID], B: s.keys[m], Kind: s.kindAt(aID, m)},
		{A: s.keys[m], B: s.keys[bID], Kind: s.kindAt(m, bID)},
	}
}

// canonicalizeTraces rewrites every derived entry's trace to the path
// through its key-smallest supporting middle and refreshes the copies in
// result.Derived, filling supports along the way when asked to.
func (s *Set) canonicalizeTraces(result *CloseResult, supports map[pairID][]int32) {
	for pid, e := range s.entries {
		if !e.Derived {
			continue
		}
		mids := s.supportMiddles(pid)
		if len(mids) == 0 {
			continue
		}
		e.Trace = s.traceVia(pid, mids[0])
		if supports != nil {
			supports[pid] = mids
		}
	}
	for i := range result.Derived {
		d := &result.Derived[i]
		if e, _, ok := s.lookup(d.A, d.B); ok && e.Derived {
			d.Trace = append([]Statement(nil), e.Trace...)
		}
	}
}
