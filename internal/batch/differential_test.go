package batch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/integrate"
	"repro/internal/mapping"
	"repro/internal/paperex"
	"repro/internal/resemblance"
	"repro/internal/workload"
)

// denseOracle runs a spec the reference way: one dense assertion.Set per
// matrix, Set.Assert then a full Set.Close after every line, then
// integrate.Integrate. It returns the index of the first assertion line
// that conflicts (object lines first, then relationship lines), or -1.
func denseOracle(t *testing.T, schemas []*ecr.Schema, spec *Spec) (*integrate.Result, error, int) {
	t.Helper()
	var s1, s2 *ecr.Schema
	for _, s := range schemas {
		switch s.Name {
		case spec.Schema1:
			s1 = s
		case spec.Schema2:
			s2 = s
		}
	}
	reg := equivalence.NewRegistry()
	reg.RegisterSchema(s1)
	reg.RegisterSchema(s2)
	if spec.AutoThreshold > 0 {
		resemblance.ApplySuggestions(reg, resemblance.SuggestEquivalences(s1, s2,
			resemblance.DefaultWeights(), dictionary.Builtin(), spec.AutoThreshold))
	}
	for _, p := range spec.Equivalences {
		a, err := core.ResolveAttr(s1, p[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.ResolveAttr(s2, p[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Declare(a, b); err != nil {
			t.Fatal(err)
		}
	}
	objs, rels := assertion.NewSet(), assertion.NewSet()
	lines := append(append([]AssertLine(nil), spec.ObjectAsserts...), spec.RelAsserts...)
	for i, l := range lines {
		set := objs
		if i >= len(spec.ObjectAsserts) {
			set = rels
		}
		kind, _ := assertion.KindFromCode(l.Code)
		if err := set.Assert(
			assertion.ObjKey{Schema: s1.Name, Object: l.Object1},
			assertion.ObjKey{Schema: s2.Name, Object: l.Object2}, kind); err != nil {
			return nil, err, i
		}
		if res := set.Close(); !res.Consistent() {
			return nil, res.Conflicts[0], i
		}
	}
	res, err := integrate.Integrate(integrate.Input{
		S1: s1, S2: s2, Registry: reg, Objects: objs, Relationships: rels, Name: spec.Name,
	})
	return res, err, -1
}

// failingLine finds the assertion line Run stops at: the shortest prefix of
// the spec's assertion lines on which Run returns a conflict, or -1.
func failingLine(t *testing.T, schemas []*ecr.Schema, spec *Spec) int {
	t.Helper()
	n := len(spec.ObjectAsserts) + len(spec.RelAsserts)
	for k := 1; k <= n; k++ {
		prefix := *spec
		if k <= len(spec.ObjectAsserts) {
			prefix.ObjectAsserts, prefix.RelAsserts = spec.ObjectAsserts[:k], nil
		} else {
			prefix.RelAsserts = spec.RelAsserts[:k-len(spec.ObjectAsserts)]
		}
		var c *assertion.Conflict
		if _, err := Run(schemas, &prefix); errors.As(err, &c) {
			return k - 1
		}
	}
	return -1
}

// encodeResult renders the integrated schema and mappings as JSON.
func encodeResult(t *testing.T, res *integrate.Result) ([]byte, []byte) {
	t.Helper()
	sc, err := json.Marshal(res.Schema)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := mapping.EncodeJSON(res.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	return sc, maps
}

// workloadSpec renders a spec over a generated schema pair: the workload's
// true equivalences and assertions, plus random assertions between the
// private object classes drawn from a hidden set model (so they are
// consistent) and shuffled in among the others. With corrupt set, one of
// the random lines gets a different code, which usually contradicts what
// the other lines imply.
func workloadSpec(t *testing.T, seed int64, corrupt bool) ([]*ecr.Schema, string) {
	t.Helper()
	cfg := workload.DefaultConfig(seed)
	cfg.Objects, cfg.Relationships = 10, 4
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "schemas w1 w2\nname INT_%d\n", seed)
	for _, class := range w.Registry.Classes() {
		var in1, in2 []ecr.AttrRef
		for _, r := range class {
			if r.Schema == "w1" {
				in1 = append(in1, r)
			} else {
				in2 = append(in2, r)
			}
		}
		for i := 0; i < len(in1) && len(in2) > 0; i++ {
			for j := 0; j < len(in2); j++ {
				if i == 0 || j == 0 {
					fmt.Fprintf(&b, "equiv %s.%s = %s.%s\n", in1[i].Object, in1[i].Attr, in2[j].Object, in2[j].Attr)
				}
			}
		}
	}
	var lines []string
	add := func(directive string, set *assertion.Set) {
		for _, e := range set.Entries() {
			a, kind, o := e.A, e.Kind, e.B
			if a.Schema != "w1" {
				a, kind, o = o, kind.Inverse(), a
			}
			lines = append(lines, fmt.Sprintf("%s %s %d %s", directive, a.Object, kind.Code(), o.Object))
		}
	}
	add("assert", w.Objects)
	add("rel-assert", w.Relationships)

	// The hidden model: each private class denotes a non-empty subset of
	// a five-element universe; a line states the true relation.
	var only1, only2 []string
	for _, o := range w.S1.Objects {
		if strings.HasPrefix(o.Name, "Only1_") {
			only1 = append(only1, o.Name)
		}
	}
	for _, o := range w.S2.Objects {
		if strings.HasPrefix(o.Name, "Only2_") {
			only2 = append(only2, o.Name)
		}
	}
	mask := map[string]int{}
	for _, o := range append(append([]string(nil), only1...), only2...) {
		mask[o] = 1 + rng.Intn(31)
	}
	code := func(m1, m2 int) int {
		switch {
		case m1 == m2:
			return 1
		case m1&m2 == m1:
			return 2
		case m1&m2 == m2:
			return 3
		case m1&m2 == 0:
			return []int{0, 4}[rng.Intn(2)]
		}
		return 5
	}
	extra := 4 * len(only1)
	bad := -1
	if corrupt {
		bad = rng.Intn(extra)
	}
	for i := 0; i < extra; i++ {
		o1, o2 := only1[rng.Intn(len(only1))], only2[rng.Intn(len(only2))]
		c := code(mask[o1], mask[o2])
		if i == bad {
			c = (c + 1 + rng.Intn(5)) % 6
		}
		lines = append(lines, fmt.Sprintf("assert %s %d %s", o1, c, o2))
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	b.WriteString(strings.Join(lines, "\n"))
	return []*ecr.Schema{w.S1, w.S2}, b.String()
}

// TestRunMatchesDenseOracle checks batch.Run, which closes each matrix
// incrementally, against the dense reference closure: identical integrated
// schema and mappings on consistent specs, and a failure on the same
// assertion line on conflicting ones.
func TestRunMatchesDenseOracle(t *testing.T) {
	paper := []*ecr.Schema{paperex.Sc1(), paperex.Sc2()}
	type input struct {
		name    string
		schemas []*ecr.Schema
		src     string
	}
	inputs := []input{
		{"paper", paper, paperSpec},
		{"paper-auto", paper, paperSpec + "auto 0.9\n"},
		{"paper-direct-conflict", paper, paperSpec + "assert Student 0 Grad_student\n"},
		// Department = Department and Student contains Grad_student, so
		// Student = Department(sc2) puts Grad_student inside
		// Department(sc1), which the first line declared disjoint.
		{"paper-derived-conflict", paper, paperSpec + "assert Department 0 Grad_student\nassert Student 1 Department\n"},
	}
	for seed := int64(1); seed <= 24; seed++ {
		schemas, src := workloadSpec(t, seed, seed%2 == 0)
		inputs = append(inputs, input{fmt.Sprintf("workload-%d", seed), schemas, src})
	}
	var agreed, conflicted int
	for _, in := range inputs {
		spec, err := ParseSpec(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		want, wantErr, wantLine := denseOracle(t, in.schemas, spec)
		got, gotErr := Run(in.schemas, spec)
		if wantLine >= 0 {
			conflicted++
			var c *assertion.Conflict
			if !errors.As(gotErr, &c) {
				t.Errorf("%s: oracle conflicts on line %d (%v); Run = %v", in.name, wantLine, wantErr, gotErr)
				continue
			}
			if line := failingLine(t, in.schemas, spec); line != wantLine {
				t.Errorf("%s: Run fails on assertion line %d, oracle on line %d", in.name, line, wantLine)
			}
			continue
		}
		if wantErr != nil {
			t.Fatalf("%s: oracle: %v", in.name, wantErr)
		}
		if gotErr != nil {
			t.Errorf("%s: oracle integrates, Run = %v", in.name, gotErr)
			continue
		}
		agreed++
		wantSchema, wantMaps := encodeResult(t, want)
		gotSchema, gotMaps := encodeResult(t, got)
		if !bytes.Equal(wantSchema, gotSchema) {
			t.Errorf("%s: integrated schema differs\noracle: %s\nRun:    %s", in.name, wantSchema, gotSchema)
		}
		if !bytes.Equal(wantMaps, gotMaps) {
			t.Errorf("%s: mappings differ", in.name)
		}
	}
	if agreed < 8 || conflicted < 4 {
		t.Errorf("inputs too one-sided: %d integrated, %d conflicted", agreed, conflicted)
	}
}
