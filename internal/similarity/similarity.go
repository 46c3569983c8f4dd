// Package similarity is the sparse, incremental similarity engine behind
// the tool's assertion-specification phase. It produces the same Object
// Class Similarity (OCS) matrices and resemblance rankings as the dense
// reference path (equivalence.ObjectMatrix, resemblance.RankObjects), but
// from an inverted index instead of the full cross-product:
//
//   - Every ecr.AttrRef is interned to an integer ID the moment it is
//     registered, and its owning structure (schema, object, kind) to an
//     owner ID, so the hot accumulation loop is slice-indexed rather than
//     hashing 4-string structs.
//   - Posting lists map each equivalence-class ID to its member attribute
//     IDs. Only classes with two or more members can contribute to any
//     count, so a query walks the handful of non-singleton classes and
//     scatters into pair counters — O(classes·postings) work — instead of
//     probing all n1·n2 pairs at O(a1+a2) map hashes each.
//   - The index attaches to an equivalence.Registry as its Observer:
//     Declare and Remove adjust only the affected posting lists, so an
//     engine stays valid across any sequence of equivalence edits.
//   - Ranking exploits sparsity a second time: pairs with no shared class
//     sort strictly after every pair with one, tied among themselves in
//     declaration order — exactly the order they are generated in. A
//     Ranking (Engine.Rank) therefore builds and sorts only the nonzero
//     pairs (typically ~n of n²), its head, and keeps the count grid to
//     tell which cells are zero. Ranking.Pairs expands it to the full
//     list; the server writes GET /v1/resemblance straight from the head
//     and the grid, without building a pair for any zero cell.
//   - Above a size threshold the accumulation and the pair construction
//     (the sort's key extraction) fan out across a GOMAXPROCS-bounded set
//     of workers partitioned by row, keeping writes disjoint.
//
// The output is element-for-element identical to the dense path, zero pairs
// and tie-breaks included; internal/similarity's differential tests enforce
// that against randomized workloads.
package similarity

import (
	"sort"
	"sync"

	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/resemblance"
)

// ownerKey identifies an object class or relationship set within a schema.
type ownerKey struct {
	schema, object string
	kind           ecr.Kind
}

// Engine is the inverted index over one equivalence registry. Create it
// with Attach; it then maintains itself through the registry's observer
// hooks. All methods are safe for concurrent use, with the usual proviso
// that registry mutations and engine queries observe the caller's own
// ordering (the server store serializes them under its RWMutex).
type Engine struct {
	mu sync.RWMutex

	// attrIDs interns every registered AttrRef once; attrOwner maps the
	// interned ID to its owner ID.
	attrIDs   map[ecr.AttrRef]int32 // guarded by mu
	attrOwner []int32               // guarded by mu

	// owners interns (schema, object, kind) triples.
	owners map[ownerKey]int32 // guarded by mu

	// classes holds the posting lists: equivalence-class ID → member
	// attribute IDs. multi tracks the classes with ≥2 members — the only
	// ones that can ever contribute to a similarity count.
	classes map[int][]int32  // guarded by mu
	multi   map[int]struct{} // guarded by mu
}

// Attach builds an engine over the registry's current contents and installs
// it as the registry's observer, so subsequent Declare/Remove/Register
// calls update the posting lists in place.
func Attach(reg *equivalence.Registry) *Engine {
	e := &Engine{
		attrIDs: map[ecr.AttrRef]int32{},
		owners:  map[ownerKey]int32{},
		classes: map[int][]int32{},
		multi:   map[int]struct{}{},
	}
	reg.ForEach(func(a ecr.AttrRef, class int) {
		e.add(a, class)
	})
	reg.SetObserver(e)
	return e
}

// add interns the attribute and appends it to its class's posting list.
// Callers hold the write lock (or own the engine exclusively, as Attach
// does).
//
//sit:locked mu
func (e *Engine) add(a ecr.AttrRef, class int) {
	id, ok := e.attrIDs[a]
	if !ok {
		ok := ownerKey{schema: a.Schema, object: a.Object, kind: a.Kind}
		oid, seen := e.owners[ok]
		if !seen {
			oid = int32(len(e.owners))
			e.owners[ok] = oid
		}
		id = int32(len(e.attrOwner))
		e.attrIDs[a] = id
		e.attrOwner = append(e.attrOwner, oid)
	}
	e.classes[class] = append(e.classes[class], id)
	if len(e.classes[class]) == 2 {
		e.multi[class] = struct{}{}
	}
}

// ClassCreated implements equivalence.Observer.
func (e *Engine) ClassCreated(id int, a ecr.AttrRef) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.add(a, id)
}

// ClassesMerged implements equivalence.Observer.
func (e *Engine) ClassesMerged(keep, drop int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.classes[keep] = append(e.classes[keep], e.classes[drop]...)
	delete(e.classes, drop)
	delete(e.multi, drop)
	if len(e.classes[keep]) >= 2 {
		e.multi[keep] = struct{}{}
	}
}

// MemberRemoved implements equivalence.Observer.
func (e *Engine) MemberRemoved(id int, a ecr.AttrRef) {
	e.mu.Lock()
	defer e.mu.Unlock()
	aid, ok := e.attrIDs[a]
	if !ok {
		return
	}
	ms := e.classes[id]
	for i, m := range ms {
		if m == aid {
			e.classes[id] = append(ms[:i], ms[i+1:]...)
			break
		}
	}
	if len(e.classes[id]) < 2 {
		delete(e.multi, id)
	}
}

// Side is one schema's structures as a query sees them: names, kinds and
// attribute counts in declaration order.
type Side struct {
	Schema string
	Names  []string
	Kinds  []ecr.Kind
	Attrs  []int
}

func newSide(s *ecr.Schema, rel bool) Side {
	if rel {
		sd := Side{
			Schema: s.Name,
			Names:  make([]string, 0, len(s.Relationships)),
			Kinds:  make([]ecr.Kind, 0, len(s.Relationships)),
			Attrs:  make([]int, 0, len(s.Relationships)),
		}
		for _, r := range s.Relationships {
			sd.Names = append(sd.Names, r.Name)
			sd.Kinds = append(sd.Kinds, ecr.KindRelationship)
			sd.Attrs = append(sd.Attrs, len(r.Attributes))
		}
		return sd
	}
	sd := Side{
		Schema: s.Name,
		Names:  make([]string, 0, len(s.Objects)),
		Kinds:  make([]ecr.Kind, 0, len(s.Objects)),
		Attrs:  make([]int, 0, len(s.Objects)),
	}
	for _, o := range s.Objects {
		sd.Names = append(sd.Names, o.Name)
		sd.Kinds = append(sd.Kinds, o.Kind)
		sd.Attrs = append(sd.Attrs, len(o.Attributes))
	}
	return sd
}

// grid is the accumulated pair-count matrix for one query, detached from
// the engine so post-processing (pair construction, sorting) runs outside
// the engine lock.
type grid struct {
	rows, cols Side
	counts     []int32 // len(rows.Names) × len(cols.Names), row-major
}

// mark projects one query side onto the index: pos[ownerID] = index+1 for
// every structure of the side, and live[attrID] = true for every attribute
// the structure carries in its *current* schema version. The live filter is
// what keeps the engine correct when a schema has been removed or replaced
// while its old equivalences linger in the registry — exactly the dense
// path's behavior of only looking up attributes the schema still declares.
//
//sit:rlocked mu
func (e *Engine) mark(s *ecr.Schema, rel bool, sd Side, pos []int32, live []bool) {
	markAttrs := func(name string, kind ecr.Kind, attrs []ecr.Attribute, idx int) {
		if oid, ok := e.owners[ownerKey{schema: s.Name, object: name, kind: kind}]; ok {
			pos[oid] = int32(idx + 1)
		}
		ref := ecr.AttrRef{Schema: s.Name, Object: name, Kind: kind}
		for _, a := range attrs {
			ref.Attr = a.Name
			if aid, ok := e.attrIDs[ref]; ok {
				live[aid] = true
			}
		}
	}
	if rel {
		for i, r := range s.Relationships {
			markAttrs(r.Name, ecr.KindRelationship, r.Attributes, i)
		}
		return
	}
	for i, o := range s.Objects {
		markAttrs(o.Name, o.Kind, o.Attributes, i)
	}
}

// newGrid runs the sparse accumulation for one schema pair under the read
// lock and returns the detached result.
func (e *Engine) newGrid(s1, s2 *ecr.Schema, rel bool) grid {
	e.mu.RLock()
	defer e.mu.RUnlock()

	g := grid{rows: newSide(s1, rel), cols: newSide(s2, rel)}
	nr, nc := len(g.rows.Names), len(g.cols.Names)
	g.counts = make([]int32, nr*nc)
	if nr == 0 || nc == 0 || len(e.multi) == 0 {
		return g
	}

	rowPos := make([]int32, len(e.owners))
	colPos := make([]int32, len(e.owners))
	live := make([]bool, len(e.attrOwner))
	e.mark(s1, rel, g.rows, rowPos, live)
	e.mark(s2, rel, g.cols, colPos, live)

	if nr*nc >= parallelPairs {
		forRowRanges(nr, func(lo, hi int) {
			e.accumulate(&g, rowPos, colPos, live, lo, hi)
		})
	} else {
		e.accumulate(&g, rowPos, colPos, live, 0, nr)
	}
	return g
}

// accumulate scatters every non-singleton class into the pair counters for
// rows in [lo, hi). Each call owns its scratch, so concurrent calls over
// disjoint row ranges write disjoint counter cells. An entry counts each
// class once per pair (set semantics): the per-class token arrays dedup
// multiple member attributes landing on the same structure.
//
//sit:rlocked mu
func (e *Engine) accumulate(g *grid, rowPos, colPos []int32, live []bool, lo, hi int) {
	nc := len(g.cols.Names)
	rowTok := make([]int32, len(g.rows.Names))
	colTok := make([]int32, nc)
	var rlist, clist []int32
	tok := int32(0)
	for id := range e.multi {
		tok++
		rlist, clist = rlist[:0], clist[:0]
		for _, m := range e.classes[id] {
			if !live[m] {
				continue
			}
			o := e.attrOwner[m]
			if p := rowPos[o]; p > 0 && int(p-1) >= lo && int(p-1) < hi && rowTok[p-1] != tok {
				rowTok[p-1] = tok
				rlist = append(rlist, p-1)
			}
			if p := colPos[o]; p > 0 && colTok[p-1] != tok {
				colTok[p-1] = tok
				clist = append(clist, p-1)
			}
		}
		for _, r := range rlist {
			base := int(r) * nc
			for _, c := range clist {
				g.counts[base+int(c)]++
			}
		}
	}
}

// RankObjects returns the object-class pairs of the two schemas ordered
// exactly as resemblance.RankObjects orders them: decreasing attribute
// ratio, then decreasing equivalent count, then schema declaration order.
func (e *Engine) RankObjects(s1, s2 *ecr.Schema) []resemblance.Pair {
	return e.Rank(s1, s2, false).Pairs()
}

// RankRelationships ranks the relationship-set pairs the same way.
func (e *Engine) RankRelationships(s1, s2 *ecr.Schema) []resemblance.Pair {
	return e.Rank(s1, s2, true).Pairs()
}

// Ranking is the resemblance ranking of one schema pair's object classes
// (or relationship sets), held sparsely: only the pairs that share an
// equivalence class are built and sorted. The zero pairs all tie at ratio
// 0 and count 0, so they rank after every other pair in declaration order
// (row-major over Rows × Cols), and the count grid is enough to say which
// cells they are. A Ranking is immutable; callers must not modify it.
type Ranking struct {
	// Rows and Cols are the structures of the first and second schema.
	Rows, Cols Side
	// Head holds the nonzero pairs in rank order. It is the start of
	// Pairs().
	Head []resemblance.Pair

	counts []int32 // the pair counts, row-major over Rows × Cols
	// nonzeroBefore[i] counts the nonzero pairs in the rows before row i.
	nonzeroBefore []int
}

// Rank computes the sparse ranking of the two schemas' object classes, or
// with rel their relationship sets. It allocates the count grid and
// O(nonzero pairs + structures), not a pair for every cell.
func (e *Engine) Rank(s1, s2 *ecr.Schema, rel bool) *Ranking {
	g := e.newGrid(s1, s2, rel)
	r := &Ranking{Rows: g.rows, Cols: g.cols, counts: g.counts}
	nr, nc := len(g.rows.Names), len(g.cols.Names)
	parallel := nr*nc >= parallelPairs

	// Census: nonzero cells per row, then prefix sums, so that workers
	// over disjoint rows know where their pairs go.
	r.nonzeroBefore = make([]int, nr+1)
	countNonzero := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := 0
			for _, c := range g.counts[i*nc : (i+1)*nc] {
				if c > 0 {
					n++
				}
			}
			r.nonzeroBefore[i+1] = n
		}
	}
	if parallel {
		forRowRanges(nr, countNonzero)
	} else {
		countNonzero(0, nr)
	}
	for i := 0; i < nr; i++ {
		r.nonzeroBefore[i+1] += r.nonzeroBefore[i]
	}
	nnz := r.nonzeroBefore[nr]

	// Key extraction: build the nonzero pairs with their generation rank
	// for tie-breaking, then sort them.
	r.Head = make([]resemblance.Pair, nnz)
	ord := make([]int, nnz)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			at := r.nonzeroBefore[i]
			a1 := g.rows.Attrs[i]
			for j, c := range g.counts[i*nc : (i+1)*nc] {
				if c > 0 {
					eq, a2 := int(c), g.cols.Attrs[j]
					r.Head[at] = resemblance.Pair{
						Schema1: g.rows.Schema, Object1: g.rows.Names[i], Kind1: g.rows.Kinds[i],
						Schema2: g.cols.Schema, Object2: g.cols.Names[j], Kind2: g.cols.Kinds[j],
						Equivalent:   eq,
						SmallerAttrs: min(a1, a2),
						Ratio:        resemblance.AttributeRatio(eq, a1, a2),
					}
					ord[at] = i*nc + j
					at++
				}
			}
		}
	}
	if parallel {
		forRowRanges(nr, fill)
	} else {
		fill(0, nr)
	}
	sort.Sort(&pairSorter{pairs: r.Head, ord: ord})
	return r
}

// Len is the number of pairs in the ranking, zero pairs included.
func (r *Ranking) Len() int { return len(r.counts) }

// Zero reports whether row i and column j share no equivalence class, so
// that their pair is not in Head but among the zero pairs after it.
func (r *Ranking) Zero(i, j int) bool { return r.counts[i*len(r.Cols.Names)+j] == 0 }

// Pairs expands the ranking into every pair in rank order: Head, then the
// zero pairs in declaration order. The result is element for element what
// resemblance.RankObjects (or RankRelationships) returns.
func (r *Ranking) Pairs() []resemblance.Pair {
	nr, nc := len(r.Rows.Names), len(r.Cols.Names)
	out := make([]resemblance.Pair, nr*nc)
	nnz := copy(out, r.Head)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			at := nnz + i*nc - r.nonzeroBefore[i]
			// A zero pair's count and ratio are 0; only the column's
			// fields change along a row.
			zero := resemblance.Pair{Schema1: r.Rows.Schema, Object1: r.Rows.Names[i], Kind1: r.Rows.Kinds[i],
				Schema2: r.Cols.Schema}
			a1 := r.Rows.Attrs[i]
			for j, c := range r.counts[i*nc : (i+1)*nc] {
				if c == 0 {
					zero.Object2, zero.Kind2, zero.SmallerAttrs = r.Cols.Names[j], r.Cols.Kinds[j], min(a1, r.Cols.Attrs[j])
					out[at] = zero
					at++
				}
			}
		}
	}
	if len(out) >= parallelPairs {
		forRowRanges(nr, fill)
	} else {
		fill(0, nr)
	}
	return out
}

// pairSorter orders the nonzero pairs by the ranking's total order: ratio
// descending, equivalent count descending, then generation rank (row-major
// declaration order). The order is total, so the result is unique and
// identical to the dense path's stable sort over all pairs.
type pairSorter struct {
	pairs []resemblance.Pair
	ord   []int
}

func (s *pairSorter) Len() int { return len(s.pairs) }

func (s *pairSorter) Less(i, j int) bool {
	a, b := &s.pairs[i], &s.pairs[j]
	if a.Ratio != b.Ratio {
		return a.Ratio > b.Ratio
	}
	if a.Equivalent != b.Equivalent {
		return a.Equivalent > b.Equivalent
	}
	return s.ord[i] < s.ord[j]
}

func (s *pairSorter) Swap(i, j int) {
	s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i]
	s.ord[i], s.ord[j] = s.ord[j], s.ord[i]
}

// ObjectMatrix derives the OCS matrix for the object classes of the two
// schemas, equal to equivalence.ObjectMatrix on the same inputs.
func (e *Engine) ObjectMatrix(s1, s2 *ecr.Schema) *equivalence.Matrix {
	return e.matrix(s1, s2, false)
}

// RelationshipMatrix derives the OCS-style matrix for the relationship sets
// of the two schemas, equal to equivalence.RelationshipMatrix.
func (e *Engine) RelationshipMatrix(s1, s2 *ecr.Schema) *equivalence.Matrix {
	return e.matrix(s1, s2, true)
}

func (e *Engine) matrix(s1, s2 *ecr.Schema, rel bool) *equivalence.Matrix {
	g := e.newGrid(s1, s2, rel)
	nr, nc := len(g.rows.Names), len(g.cols.Names)
	back := make([]int, nr*nc)
	convert := func(lo, hi int) {
		for i := lo * nc; i < hi*nc; i++ {
			back[i] = int(g.counts[i])
		}
	}
	if nr*nc >= parallelPairs {
		forRowRanges(nr, convert)
	} else {
		convert(0, nr)
	}
	counts := make([][]int, nr)
	for i := range counts {
		counts[i] = back[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return &equivalence.Matrix{
		Schema1: g.rows.Schema, Schema2: g.cols.Schema,
		Rows: g.rows.Names, Cols: g.cols.Names,
		Counts: counts,
	}
}
