package assertion

import (
	"fmt"
	"sort"
)

// Engine maintains an assertion matrix and its transitive closure
// incrementally. Where Set.Close re-runs the global fixpoint and
// Override/Retract throw the whole derived closure away, the Engine keeps
// the invariant
//
//	matrix == closure(DDA-specified entries)
//
// at all times and updates it per operation by composing only the two-step
// paths that pass through changed edges (semi-naive delta propagation).
// Every derived entry carries a support count — the set of middle objects
// whose paths currently derive it — so a retract removes exactly the
// derivations that lost their last support and re-derives the ones that
// have an alternative path (the delete-and-rederive step of DRed).
//
// In a conflict-free matrix each derivable pair admits exactly one
// relation, which makes the incremental result independent of operation
// order and byte-identical to a dense re-closure from the specified
// entries. When a contradiction appears that uniqueness is gone (the dense
// pass keeps whichever entry it derived first), so the Engine falls back to
// exactly that dense pass — DropDerived plus Close — and stays in this
// rebuild-per-operation mode until a rebuild comes back clean. Correctness
// never depends on the fast path: the fallback is the oracle computation
// itself.
//
// The Engine is not safe for concurrent use; callers provide their own
// locking (the server store wraps it in its workspace mutex).
type Engine struct {
	s *Set
	// version counts mutations that reached the matrix, monotonically.
	// Reads stamped with a version stay valid while it is unchanged.
	version uint64
	// supports maps each derived pair to the middle objects currently
	// deriving it, sorted by key order. The first middle is the canonical
	// trace. Specified entries never appear here.
	supports map[pairID][]int32
	// conflicted is true while the matrix holds contradictions; standing
	// carries the conflicts of the last full re-closure.
	conflicted bool
	standing   []*Conflict
}

// NewEngine returns an engine over an empty matrix.
func NewEngine() *Engine {
	return &Engine{s: NewSet(), supports: map[pairID][]int32{}}
}

// Version returns the mutation counter. It increases on every operation
// that changed the matrix and never decreases, so it can stamp caches of
// derived state.
func (e *Engine) Version() uint64 { return e.version }

// Consistent reports whether the matrix is free of contradictions.
func (e *Engine) Consistent() bool { return !e.conflicted }

// Conflicts returns the standing contradictions (empty when consistent).
func (e *Engine) Conflicts() []*Conflict {
	return append([]*Conflict(nil), e.standing...)
}

// Len returns the number of asserted or derived pairs.
func (e *Engine) Len() int { return e.s.Len() }

// Kind returns the assertion held from a's point of view toward b.
func (e *Engine) Kind(a, b ObjKey) Kind { return e.s.Kind(a, b) }

// Objects returns every object mentioned by any entry, sorted.
func (e *Engine) Objects() []ObjKey { return e.s.Objects() }

// Matrix renders the Entity Assertion matrix for the given objects.
func (e *Engine) Matrix(objs []ObjKey) string { return e.s.Matrix(objs) }

// Set exposes the underlying matrix for read-only use (rendering,
// integration input). Callers must not mutate it behind the engine's back.
func (e *Engine) Set() *Set { return e.s }

// Clone returns an independent deep copy of the underlying matrix.
func (e *Engine) Clone() *Set { return e.s.Clone() }

// Entry returns the entry held for the pair in canonical orientation, with
// its trace recomputed against the current support set.
func (e *Engine) Entry(a, b ObjKey) (Entry, bool) {
	key, _ := canonicalPair(a, b)
	ent, pid, ok := e.s.lookup(key.a, key.b)
	if !ok {
		return Entry{}, false
	}
	cp := *ent
	cp.Trace = e.traceOf(pid, ent)
	return cp, true
}

// Entries returns every entry in deterministic order, traces current.
func (e *Engine) Entries() []Entry {
	out := e.s.Entries()
	for i := range out {
		if out[i].Derived {
			if ent, pid, ok := e.s.lookup(out[i].A, out[i].B); ok {
				out[i].Trace = e.traceOf(pid, ent)
			}
		}
	}
	return out
}

// traceOf returns the canonical trace for an entry: nil for specified
// entries, the path through the key-smallest supporting middle otherwise.
func (e *Engine) traceOf(pid pairID, ent *Entry) []Statement {
	if !ent.Derived {
		return nil
	}
	if mids := e.supports[pid]; len(mids) > 0 {
		return e.s.traceVia(pid, mids[0])
	}
	return append([]Statement(nil), ent.Trace...)
}

// rebuild recomputes the closure densely from the specified entries — the
// oracle computation — refreshing the support counts, and records whether
// the matrix is still contradicted.
func (e *Engine) rebuild() CloseResult {
	e.s.DropDerived()
	e.supports = make(map[pairID][]int32)
	res := e.s.close(e.supports)
	e.standing = res.Conflicts
	e.conflicted = len(res.Conflicts) > 0
	return res
}

// Assert records that A <kind> B and incrementally closes the matrix. The
// error is a *Conflict when the pair already holds a contradicting entry
// (the matrix is left unchanged), as with Set.Assert. A contradiction the
// closure derives is not an error: it shows in Consistent and Conflicts.
func (e *Engine) Assert(a, b ObjKey, kind Kind) error {
	_, err := e.assert(a, b, kind)
	return err
}

// AssertAndClose records the assertion and returns the closure delta: the
// entries this operation derived and the matrix's standing conflicts, so a
// caller sees a contradiction the closure derives as well as a direct one.
// A direct conflict is the first element of Conflicts and leaves the
// matrix unchanged.
func (e *Engine) AssertAndClose(a, b ObjKey, kind Kind) CloseResult {
	res, err := e.assert(a, b, kind)
	if err != nil {
		if c, ok := err.(*Conflict); ok {
			return CloseResult{Conflicts: []*Conflict{c}}
		}
		return CloseResult{Conflicts: []*Conflict{{
			Existing: Entry{},
			Proposed: Statement{A: a, B: b, Kind: kind},
		}}}
	}
	return res
}

func (e *Engine) assert(a, b ObjKey, kind Kind) (CloseResult, error) {
	if kind == Unspecified {
		return CloseResult{}, fmt.Errorf("assertion: cannot assert 'unspecified' between %s and %s", a, b)
	}
	if a == b {
		return CloseResult{}, fmt.Errorf("assertion: %s asserted against itself", a)
	}
	key, swapped := canonicalPair(a, b)
	stored := kind
	if swapped {
		stored = kind.Inverse()
	}
	if ent, pid, ok := e.s.lookup(key.a, key.b); ok {
		if ent.Kind.Rel() != stored.Rel() {
			held := *ent
			held.Trace = e.traceOf(pid, ent)
			return CloseResult{}, &Conflict{
				Existing: held,
				Proposed: Statement{A: a, B: b, Kind: kind},
			}
		}
		// Compatible restatement: same domain relation, so the closure
		// structure is untouched; the entry just becomes DDA-specified.
		ent.Kind = stored
		ent.Derived = false
		ent.Trace = nil
		delete(e.supports, pid)
		e.version++
		if e.conflicted {
			return e.rebuild(), nil
		}
		return CloseResult{}, nil
	}
	e.s.put(&Entry{Statement: Statement{A: key.a, B: key.b, Kind: stored}})
	e.version++
	if e.conflicted {
		return e.rebuild(), nil
	}
	ia, ib := e.s.ids[key.a], e.s.ids[key.b]
	var delta CloseResult
	if !e.propagate(ia, ib, &delta) {
		return e.rebuild(), nil
	}
	e.finishDelta(&delta)
	return delta, nil
}

// Override replaces whatever is held for the pair with the DDA's new
// assertion and incrementally re-closes: derivations supported only by the
// old entry are cascaded away (and re-derived where an alternative path
// exists) before the new edge's consequences propagate. The returned
// result carries the entries (re)derived by the operation and the standing
// conflicts.
func (e *Engine) Override(a, b ObjKey, kind Kind) (CloseResult, error) {
	if kind == Unspecified {
		return CloseResult{}, fmt.Errorf("assertion: cannot assert 'unspecified' between %s and %s", a, b)
	}
	if a == b {
		return CloseResult{}, fmt.Errorf("assertion: %s asserted against itself", a)
	}
	key, swapped := canonicalPair(a, b)
	stored := kind
	if swapped {
		stored = kind.Inverse()
	}
	e.version++
	if e.conflicted {
		if err := e.s.Override(a, b, kind); err != nil {
			return CloseResult{}, err
		}
		return e.rebuild(), nil
	}
	ent, pid, ok := e.s.lookup(key.a, key.b)
	if ok && ent.Kind.Rel() == stored.Rel() {
		ent.Kind = stored
		ent.Derived = false
		ent.Trace = nil
		delete(e.supports, pid)
		return CloseResult{}, nil
	}
	var gone []removedPair
	if ok {
		gone = e.removeCascade(pid)
	}
	e.s.put(&Entry{Statement: Statement{A: key.a, B: key.b, Kind: stored}})
	ia, ib := e.s.ids[key.a], e.s.ids[key.b]
	var delta CloseResult
	if !e.propagate(ia, ib, &delta) {
		return e.rebuild(), nil
	}
	reder, okRederive := e.rederive(gone, pid, &delta)
	if !okRederive {
		return e.rebuild(), nil
	}
	delta.Derived = append(delta.Derived, reder...)
	e.finishDelta(&delta)
	return delta, nil
}

// DerivedError rejects the retraction of a derived entry: derivations
// follow from their supports, so the DDA must retract a supporting
// assertion instead. Entry carries the derivation chain.
type DerivedError struct {
	Entry Entry
}

// Error renders the rejection with the derivation behind the entry.
func (d *DerivedError) Error() string {
	msg := fmt.Sprintf("assertion: cannot retract derived assertion %s; retract one of its supports instead", d.Entry.Statement)
	for _, t := range d.Entry.Trace {
		msg += fmt.Sprintf("\n  derived from: %s", t)
	}
	return msg
}

// RetractResult reports what a retraction did.
type RetractResult struct {
	// Found is false when no assertion was held for the pair.
	Found bool
	// Removed lists the retracted statement plus every derived entry that
	// lost its last support (and found no alternative derivation).
	Removed []Statement
	// Rederived lists derived entries that survived the retraction
	// through an alternative path, or reappeared via one.
	Rederived []Entry
	// Conflicts carries the standing conflicts after the operation (a
	// retraction can only resolve conflicts, never create them, but a
	// previously contradicted matrix may still hold others).
	Conflicts []*Conflict
}

// Retract removes the DDA-specified assertion between a and b. Derived
// entries supported only by it are removed too; derived entries with an
// alternative derivation survive, and the retracted pair itself reappears
// as derived when the remaining entries still imply it. Retracting a
// derived entry is rejected with a *DerivedError.
func (e *Engine) Retract(a, b ObjKey) (RetractResult, error) {
	key, _ := canonicalPair(a, b)
	ent, pid, ok := e.s.lookup(key.a, key.b)
	if !ok {
		return RetractResult{}, nil
	}
	if ent.Derived {
		held := *ent
		held.Trace = e.traceOf(pid, ent)
		return RetractResult{}, &DerivedError{Entry: held}
	}
	e.version++
	stmt := ent.Statement
	if e.conflicted {
		i, j := unpackIDs(pid)
		e.s.removeIDs(i, j)
		res := e.rebuild()
		return RetractResult{Found: true, Removed: []Statement{stmt}, Conflicts: res.Conflicts}, nil
	}
	gone := e.removeCascade(pid)
	var delta CloseResult
	reder, okRederive := e.rederive(gone, 0, &delta)
	if !okRederive {
		res := e.rebuild()
		return RetractResult{Found: true, Removed: []Statement{stmt}, Conflicts: res.Conflicts}, nil
	}
	delta.Derived = append(delta.Derived, reder...)
	e.finishDelta(&delta)
	var removed []Statement
	for _, g := range gone {
		if _, stillGone := e.s.entries[g.pid]; !stillGone {
			removed = append(removed, g.stmt)
		}
	}
	return RetractResult{Found: true, Removed: removed, Rederived: delta.Derived}, nil
}

// removedPair remembers an entry dropped during a retraction cascade; the
// ids stay interned, so the pair can be revisited for re-derivation.
type removedPair struct {
	pid  pairID
	stmt Statement
}

// removeCascade removes the entry at pid and cascades in DRed's
// over-deleting style: every derived pair with any support path through a
// removed edge is removed too, recursively — not just pairs that lost
// their last support. Support counts alone cannot see unfounded cycles
// (two derived entries each deriving the other stay at one support each
// after their real ground is gone), so the cascade over-deletes and the
// re-derivation pass restores exactly the pairs still grounded in the
// surviving entries. The full list of dropped pairs is returned for that
// pass.
func (e *Engine) removeCascade(pid pairID) []removedPair {
	s := e.s
	var gone []removedPair
	// removedAdj records the endpoints of edges dropped by this cascade:
	// the scan below walks the live adjacency of x, which no longer lists
	// a neighbour whose edge was dropped earlier in the same cascade, so
	// pairs supported through two already-dropped legs would otherwise
	// keep the stale middle.
	removedAdj := map[int32][]int32{}
	drop := func(p pairID) {
		ent := s.entries[p]
		gone = append(gone, removedPair{pid: p, stmt: ent.Statement})
		i, j := unpackIDs(p)
		s.removeIDs(i, j)
		removedAdj[i] = append(removedAdj[i], j)
		removedAdj[j] = append(removedAdj[j], i)
		delete(e.supports, p)
	}
	drop(pid)
	for cursor := 0; cursor < len(gone); cursor++ {
		x, y := unpackIDs(gone[cursor].pid)
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				x, y = y, x
			}
			// Removing edge {x, y} kills the support middle x of every
			// pair (y, z) whose other leg (x, z) is — or was, before this
			// cascade — an edge.
			scan := func(z int32) {
				q := packIDs(y, z)
				ent, ok := s.entries[q]
				if !ok || !ent.Derived {
					return
				}
				if e.dropSupport(q, x) {
					drop(q)
				}
			}
			for _, z := range s.adj[x] {
				scan(z)
			}
			for _, z := range removedAdj[x] {
				if z != y {
					scan(z)
				}
			}
		}
	}
	return gone
}

// rederive revisits every dropped pair and re-derives the ones that still
// have a two-step path, propagating each re-insertion (which also restores
// the supports of surviving entries whose paths ran through it). skip names
// a pair that must stay out (Override re-asserts it as specified). The
// false return means a propagation found a contradiction and the caller
// must fall back to a full rebuild.
func (e *Engine) rederive(gone []removedPair, skip pairID, delta *CloseResult) ([]Entry, bool) {
	s := e.s
	sort.Slice(gone, func(i, j int) bool {
		if gone[i].stmt.A != gone[j].stmt.A {
			return lessKey(gone[i].stmt.A, gone[j].stmt.A)
		}
		return lessKey(gone[i].stmt.B, gone[j].stmt.B)
	})
	var reder []Entry
	for _, g := range gone {
		if g.pid == skip {
			continue
		}
		i, j := unpackIDs(g.pid)
		aID, bID := orientIDs(s, i, j)
		if ent, exists := s.entries[g.pid]; exists {
			// Re-derived by an earlier propagation, which only saw paths
			// through the edges it inserted; rescan for the full support
			// set so the canonical (key-smallest) trace middle matches
			// the dense closure's.
			if !ent.Derived {
				continue
			}
			mids, _, agree := s.supportScan(aID, bID, ent.Kind.Rel())
			if !agree || len(mids) == 0 {
				return nil, false
			}
			e.supports[g.pid] = mids
			continue
		}
		mids, rel, agree := s.supportScan(aID, bID, relNone)
		if !agree {
			return nil, false // only reachable from a contradicted state
		}
		if len(mids) == 0 {
			continue
		}
		ent := &Entry{
			Statement: Statement{A: s.keys[aID], B: s.keys[bID], Kind: rel.Kind()},
			Derived:   true,
		}
		s.put(ent)
		e.supports[g.pid] = mids
		reder = append(reder, *ent)
		if !e.propagate(aID, bID, delta) {
			return nil, false
		}
	}
	return reder, true
}

// propagate runs semi-naive delta propagation from the edge (x, y): every
// two-step path with the new edge as one leg is composed, deriving new
// entries (which queue their own propagation), adding support middles to
// existing derived entries, and detecting contradictions with existing
// ones. Returns false on the first contradiction — the caller falls back
// to a dense rebuild, which reproduces the contradiction with the dense
// pass's full conflict report.
func (e *Engine) propagate(x, y int32, delta *CloseResult) bool {
	s := e.s
	queue := [][2]int32{{x, y}}
	for len(queue) > 0 {
		edge := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for pass := 0; pass < 2; pass++ {
			m, far := edge[0], edge[1]
			if pass == 1 {
				m, far = far, m
			}
			r2 := s.relAt(m, far)
			if r2 == relNone {
				continue // defensive: the edge was just inserted
			}
			for _, n := range s.adj[m] {
				if n == far {
					continue
				}
				r1 := s.relAt(n, m)
				if r1 == relNone {
					continue
				}
				possible := Compose(r1, r2)
				pid := packIDs(n, far)
				if ex, ok := s.entries[pid]; ok {
					exRel := s.relAt(n, far)
					if !possible.Has(exRel) {
						return false
					}
					if ex.Derived {
						if single, ok := possible.Single(); ok && single == exRel {
							e.addSupport(pid, m)
						}
					}
					continue
				}
				single, ok := possible.Single()
				if !ok {
					continue
				}
				kn, kf := s.keys[n], s.keys[far]
				stored := single.Kind()
				a, b := kn, kf
				if lessKey(kf, kn) {
					a, b = kf, kn
					stored = stored.Inverse()
				}
				ent := &Entry{Statement: Statement{A: a, B: b, Kind: stored}, Derived: true}
				s.put(ent)
				e.supports[pid] = []int32{m}
				delta.Derived = append(delta.Derived, *ent)
				queue = append(queue, [2]int32{n, far})
			}
		}
	}
	return true
}

// addSupport inserts middle m into the pair's support list, keeping it
// key-sorted and deduplicated (a path found through both endpoints of one
// new edge is the same path).
func (e *Engine) addSupport(pid pairID, m int32) {
	mids := e.supports[pid]
	at := sort.Search(len(mids), func(x int) bool { return !lessKey(e.s.keys[mids[x]], e.s.keys[m]) })
	if at < len(mids) && mids[at] == m {
		return
	}
	mids = append(mids, 0)
	copy(mids[at+1:], mids[at:])
	mids[at] = m
	e.supports[pid] = mids
}

// dropSupport removes middle m from the pair's support list, reporting
// whether it was present.
func (e *Engine) dropSupport(pid pairID, m int32) bool {
	mids, ok := e.supports[pid]
	if !ok {
		return false
	}
	at := sort.Search(len(mids), func(x int) bool { return !lessKey(e.s.keys[mids[x]], e.s.keys[m]) })
	if at < len(mids) && mids[at] == m {
		e.supports[pid] = append(mids[:at], mids[at+1:]...)
		return true
	}
	return false
}

// finishDelta orders the operation's derived entries deterministically and
// stamps them with their final canonical traces (supports may have grown
// after an entry was first derived).
func (e *Engine) finishDelta(delta *CloseResult) {
	sort.Slice(delta.Derived, func(i, j int) bool {
		if delta.Derived[i].A != delta.Derived[j].A {
			return lessKey(delta.Derived[i].A, delta.Derived[j].A)
		}
		return lessKey(delta.Derived[i].B, delta.Derived[j].B)
	})
	for i := range delta.Derived {
		d := &delta.Derived[i]
		if ent, pid, ok := e.s.lookup(d.A, d.B); ok {
			d.Trace = e.traceOf(pid, ent)
		}
	}
}

// Explain returns the chain of DDA-specified assertions that implies the
// entry held for (a, b): the entry itself when specified, otherwise the
// canonical derivation expanded down to specified statements. ok is false
// when the pair holds no entry.
func (e *Engine) Explain(a, b ObjKey) ([]Statement, bool) {
	key, _ := canonicalPair(a, b)
	_, pid, ok := e.s.lookup(key.a, key.b)
	if !ok {
		return nil, false
	}
	seen := map[pairID]bool{}
	return e.explainPair(pid, seen, nil), true
}

// ExplainConflict expands a conflict's supporting assertions down to the
// DDA-specified statements that jointly imply the contradiction: the
// grounding of both composition legs and of the existing entry.
func (e *Engine) ExplainConflict(c *Conflict) []Statement {
	seen := map[pairID]bool{}
	var out []Statement
	for _, t := range c.Trace {
		if _, pid, ok := e.s.lookup(t.A, t.B); ok {
			out = e.explainPair(pid, seen, out)
		}
	}
	if _, pid, ok := e.s.lookup(c.Existing.A, c.Existing.B); ok {
		out = e.explainPair(pid, seen, out)
	}
	return out
}

// explainPair walks the canonical derivation of pid down to specified
// statements, appending them to out. seen cuts shared subtrees (and, in a
// contradicted matrix, support cycles).
func (e *Engine) explainPair(pid pairID, seen map[pairID]bool, out []Statement) []Statement {
	if seen[pid] {
		return out
	}
	seen[pid] = true
	ent, ok := e.s.entries[pid]
	if !ok {
		return out
	}
	if !ent.Derived {
		return append(out, ent.Statement)
	}
	mids := e.supports[pid]
	if len(mids) == 0 {
		return out
	}
	i, j := unpackIDs(pid)
	out = e.explainPair(packIDs(i, mids[0]), seen, out)
	return e.explainPair(packIDs(mids[0], j), seen, out)
}
