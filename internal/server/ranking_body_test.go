package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecr"
)

// The body of GET /resemblance is written from the sparse ranking: the
// nonzero head, then each zero cell put together from quoted per-structure
// pieces cached beside it. These tests hold it to the dense oracle, the
// body writeJSON writes for the list resemblance.RankObjects (or
// RankRelationships) computes from scratch on the same state.

// checkRanking reads the ranking of the pair through the store twice (a
// miss or a hit, then a hit) and compares both bodies with the dense
// oracle's.
func checkRanking(t testing.TB, what string, st *Store, schema1, schema2 string, rel bool) {
	t.Helper()
	want := oracleBody(t, map[string]any{"pairs": freshDense(st, schema1, schema2, rel)})
	for _, read := range []string{"first read", "cached read"} {
		rb, err := st.rankedBody(schema1, schema2, rel)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		rec := httptest.NewRecorder()
		writeRanking(rec, rb)
		checkSameResponse(t, fmt.Sprintf("%s (rel=%v, %s)", what, rel, read), rec, want)
	}
}

// oddNames need every escape encoding/json makes, and none of them holds
// a '.', which separates an attribute reference's structure and attribute.
var oddNames = []string{"A", "<b>", "&c", `"q\`, "\x00\x1f", "t\tn\nr\r", "  ", "\xff\xc3", "é世😀", "\b\f\x7f"}

// rankingScenario plays random schema and equivalence edits on a store
// holding two schemas and checks both rankings of the pair after each.
type rankingScenario struct {
	t      testing.TB
	rng    *rand.Rand
	st     *Store
	names  []string // name fragments for structures and attributes
	s1, s2 string
}

// randomSchema builds a schema of up to five object classes and two
// relationship sets with zero to three attributes each. With like set, it
// keeps like's structures (names, kinds, participants) and draws only new
// attribute counts, so attribute names the two share keep their
// equivalences and the rest go stale.
func (sc *rankingScenario) randomSchema(name string, like *ecr.Schema) *ecr.Schema {
	rng := sc.rng
	attrs := func(owner int) []ecr.Attribute {
		var out []ecr.Attribute
		for a := range rng.Intn(4) {
			frag := strings.ReplaceAll(sc.names[(owner+a)%len(sc.names)], ".", "")
			out = append(out, ecr.Attribute{Name: fmt.Sprintf("%s%d", frag, a), Domain: "char", Key: a == 0})
		}
		return out
	}
	s := ecr.NewSchema(name)
	if like != nil {
		for i, o := range like.Objects {
			sc.must(s.AddObject(&ecr.ObjectClass{Name: o.Name, Kind: o.Kind, Parents: o.Parents, Attributes: attrs(i)}))
		}
		for i, r := range like.Relationships {
			sc.must(s.AddRelationship(&ecr.RelationshipSet{Name: r.Name, Participants: r.Participants, Attributes: attrs(i)}))
		}
		return s
	}
	for i := range rng.Intn(6) {
		o := &ecr.ObjectClass{Name: sc.name(i), Kind: ecr.KindEntity, Attributes: attrs(i)}
		if i > 0 && rng.Intn(4) == 0 {
			o.Kind, o.Parents = ecr.KindCategory, []string{s.Objects[0].Name}
		}
		sc.must(s.AddObject(o))
	}
	if len(s.Objects) == 0 {
		return s
	}
	for i := range rng.Intn(3) {
		pick := func() string { return s.Objects[rng.Intn(len(s.Objects))].Name }
		sc.must(s.AddRelationship(&ecr.RelationshipSet{
			Name:       sc.name(6 + i),
			Attributes: attrs(6 + i),
			Participants: []ecr.Participation{
				{Object: pick(), Role: "x", Card: ecr.Cardinality{Min: 0, Max: ecr.N}},
				{Object: pick(), Role: "y", Card: ecr.Cardinality{Min: 1, Max: 1}},
			},
		}))
	}
	return s
}

// name is a structure name, unique within a schema for idx below 10.
func (sc *rankingScenario) name(idx int) string {
	return fmt.Sprintf("%s%d", sc.names[sc.rng.Intn(len(sc.names))], idx)
}

func (sc *rankingScenario) must(err error) {
	sc.t.Helper()
	if err != nil {
		sc.t.Fatal(err)
	}
}

// attrRefs lists every attribute of the named schema as "structure.attr".
func (sc *rankingScenario) attrRefs(schema string) []string {
	s := sc.st.Schema(schema)
	var out []string
	for _, o := range s.Objects {
		for _, a := range o.Attributes {
			out = append(out, o.Name+"."+a.Name)
		}
	}
	for _, r := range s.Relationships {
		for _, a := range r.Attributes {
			out = append(out, r.Name+"."+a.Name)
		}
	}
	return out
}

func (sc *rankingScenario) check(what string) {
	sc.t.Helper()
	for _, rel := range []bool{false, true} {
		checkRanking(sc.t, what, sc.st, sc.s1, sc.s2, rel)
	}
}

// play applies one edit per op byte and checks the rankings after each.
func (sc *rankingScenario) play(ops []byte) {
	sc.t.Helper()
	sc.st = NewStore()
	_, err := sc.st.AddSchemas([]*ecr.Schema{sc.randomSchema(sc.s1, nil), sc.randomSchema(sc.s2, nil)})
	sc.must(err)
	sc.check("initial")
	for step, op := range ops {
		what := fmt.Sprintf("step %d", step)
		switch op % 6 {
		case 0, 1: // declare across the schemas, or within the first
			from, to := sc.s1, sc.s2
			if op%12 == 1 {
				to = sc.s1
			}
			r1, r2 := sc.attrRefs(from), sc.attrRefs(to)
			if len(r1) == 0 || len(r2) == 0 {
				continue
			}
			a, b := r1[sc.rng.Intn(len(r1))], r2[sc.rng.Intn(len(r2))]
			what += fmt.Sprintf(": declare %q ≡ %q", a, b)
			if err := sc.st.DeclareEquivalence(from, a, to, b); err != nil && from != to {
				sc.t.Fatalf("%s: %v", what, err)
			}
		case 2: // remove an attribute from its equivalence class
			name := []string{sc.s1, sc.s2}[sc.rng.Intn(2)]
			refs := sc.attrRefs(name)
			if len(refs) == 0 {
				continue
			}
			ref, err := core.ResolveAttr(sc.st.Schema(name), refs[sc.rng.Intn(len(refs))])
			sc.must(err)
			what += fmt.Sprintf(": remove %v", ref)
			sc.st.mu.Lock()
			sc.st.ws.Registry().Remove(ref)
			sc.st.mu.Unlock()
		case 3, 4: // replace a schema: same structures, new attribute counts
			name := []string{sc.s1, sc.s2}[op%2]
			what += ": replace " + name
			next := sc.randomSchema(name, sc.st.Schema(name))
			_, err := sc.st.RemoveSchema(name)
			sc.must(err)
			_, err = sc.st.AddSchemas([]*ecr.Schema{next})
			sc.must(err)
		case 5: // delete a schema and add a different one under its name
			name := []string{sc.s1, sc.s2}[sc.rng.Intn(2)]
			what += ": delete and re-add " + name
			_, err := sc.st.RemoveSchema(name)
			sc.must(err)
			_, err = sc.st.AddSchemas([]*ecr.Schema{sc.randomSchema(name, nil)})
			sc.must(err)
		}
		sc.check(what)
	}
}

func newRankingScenario(t testing.TB, seed int64, extraName string) *rankingScenario {
	names := oddNames
	if extraName != "" {
		names = append(names[:len(names):len(names)], extraName)
	}
	return &rankingScenario{t: t, rng: rand.New(rand.NewSource(seed)), names: names,
		s1: `s<1>&"`, s2: "s \\2"}
}

// TestRankingBodyMatchesDense plays random edit sequences (declares within
// and across the schemas, removals from a class, schema replacement with
// new attribute counts, schema deletion with lingering equivalences) on
// random schema pairs, from empty and lopsided to five-by-five, with
// zero-attribute structures and names needing every escape.
func TestRankingBodyMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sc := newRankingScenario(t, seed, "")
		ops := make([]byte, 30)
		sc.rng.Read(ops)
		sc.play(ops)
	}
}

// TestRankingBodyOnWorkloads compares the sparse body with the dense one
// on generated pairs large enough for the parallel ranking path.
func TestRankingBodyOnWorkloads(t *testing.T) {
	for _, objects := range []int{1, 40, 150} {
		st := workloadStore(t, 3, objects)
		for _, rel := range []bool{false, true} {
			checkRanking(t, fmt.Sprintf("%d objects", objects), st, "w1", "w2", rel)
		}
	}
}

// FuzzRankingBody drives the edit sequence and the schemas' shapes from
// the fuzzer, with one more structure name of its choosing.
func FuzzRankingBody(f *testing.F) {
	f.Add(int64(1), "Student", []byte{0, 0, 3, 1, 5, 2, 0})
	f.Add(int64(7), "<&> \x00\xff", []byte{0, 6, 12, 4, 2, 5, 0, 0})
	f.Add(int64(-3), "", []byte{})
	f.Fuzz(func(t *testing.T, seed int64, name string, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		newRankingScenario(t, seed, name).play(ops)
	})
}
