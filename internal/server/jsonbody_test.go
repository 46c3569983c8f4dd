package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/resemblance"
	"repro/internal/workload"
)

// writeJSON is the oracle: the one-pass writers must produce exactly the
// status, content type and body it produces for the same value.

func oracleBody(t testing.TB, v any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec
}

func checkSameResponse(t testing.TB, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s: status %d %q, writeJSON gives %d %q", what,
			got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if g, w := got.Body.Bytes(), want.Body.Bytes(); !bytes.Equal(g, w) {
		t.Fatalf("%s: body differs from writeJSON at byte %d\n got: %q\nwant: %q", what,
			firstDiff(g, w), window(g, firstDiff(g, w)), window(w, firstDiff(g, w)))
	}
}

// window shows the bytes of b around offset i.
func window(b []byte, i int) []byte {
	lo, hi := max(i-40, 0), min(i+40, len(b))
	return b[lo:hi]
}

// checkPairs writes pairs as a ranking body with nothing after the list
// and compares the response with writeJSON's; it returns the status.
func checkPairs(t testing.TB, what string, pairs []resemblance.Pair) int {
	t.Helper()
	rec := httptest.NewRecorder()
	b, err := appendPairsBody(nil, pairs, nil)
	writeBody(rec, b, err)
	checkSameResponse(t, what, rec, oracleBody(t, map[string]any{"pairs": pairs}))
	return rec.Code
}

func checkMatrix(t testing.TB, what string, m *equivalence.Matrix) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeMatrix(rec, m)
	checkSameResponse(t, what, rec, oracleBody(t, map[string]any{"matrix": m}))
}

// workloadStore builds a store over a generated pair with its true
// equivalences declared, so rankings and matrices have nonzero content.
func workloadStore(t testing.TB, seed int64, objects int) *Store {
	t.Helper()
	cfg := workload.Config{Seed: seed, Objects: objects, AttrsPerObject: 5, Overlap: 0.5,
		Relationships: objects / 4, NamingNoise: 0.2}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{w.S1, w.S2}); err != nil {
		t.Fatal(err)
	}
	for _, class := range w.Registry.Classes() {
		for i := 1; i < len(class); i++ {
			a, z := class[0], class[i]
			if a.Schema == z.Schema && a.Object == z.Object {
				continue
			}
			if err := st.DeclareEquivalence(a.Schema, a.Object+"."+a.Attr, z.Schema, z.Object+"."+z.Attr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestResponseAppendMatchesWriteJSONOnWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := workloadStore(t, seed, 40)
		for _, rel := range []bool{false, true} {
			checkRanking(t, "ranking", st, "w1", "w2", rel)
			m, err := st.Matrix("w1", "w2", rel)
			if err != nil {
				t.Fatal(err)
			}
			checkMatrix(t, "matrix", m)
		}
	}
}

func TestResponseAppendEdgeCases(t *testing.T) {
	checkPairs(t, "nil pairs", nil)
	checkPairs(t, "empty pairs", []resemblance.Pair{})
	for _, r := range []float64{0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1.5e-300,
		5e-324, 1e20, 1e21, 123456789012345678901234.0, -2.5e-8, math.MaxFloat64} {
		checkPairs(t, "ratio", []resemblance.Pair{{Schema1: "a", Object1: "b", Schema2: "c", Object2: "d",
			Kind1: ecr.KindCategory, Kind2: ecr.KindRelationship, Equivalent: -3, SmallerAttrs: 1 << 40, Ratio: r}})
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if code := checkPairs(t, "unencodable ratio", []resemblance.Pair{{Ratio: 0.5}, {Ratio: r}}); code != http.StatusInternalServerError {
			t.Errorf("unencodable ratio %v: status %d, want 500", r, code)
		}
	}
	checkPairs(t, "escapes", []resemblance.Pair{{
		Schema1: "<a>&\"b\\", Object1: "\x00\x01\x1f\x7f\b\f\n\r\t", Schema2: "\u2028\u2029\u00e9\U0001F600",
		Object2: "\xff\xc3\xe2\x80x\xed\xa0\x80", Kind1: ecr.Kind(7), Kind2: ecr.Kind(-1), Ratio: 0.25,
	}})

	checkMatrix(t, "nil matrix", nil)
	checkMatrix(t, "nil lists", &equivalence.Matrix{Schema1: "a"})
	checkMatrix(t, "empty lists", &equivalence.Matrix{Rows: []string{}, Cols: []string{}, Counts: [][]int{}})
	checkMatrix(t, "nil and empty rows", &equivalence.Matrix{
		Schema1: "<s1>", Schema2: "\u2028", Rows: []string{"x\x00", "\xff"}, Cols: []string{""},
		Counts: [][]int{nil, {}, {0, -1, math.MaxInt64, math.MinInt64}},
	})
}

// FuzzResponseAppend feeds arbitrary strings, ratios and ints through both
// writers and compares each body with writeJSON's.
func FuzzResponseAppend(f *testing.F) {
	f.Add("sc1", "Student", 0.5, 3)
	f.Add("<&>", "\u2028\x00\xff", 1e-7, -1)
	f.Add("", "\"\\", math.Inf(1), 7)
	f.Add("a\tb", "\u00e9", 1e21, 1<<40)
	f.Fuzz(func(t *testing.T, s1, s2 string, ratio float64, n int) {
		checkPairs(t, "pairs", []resemblance.Pair{
			{Schema1: s1, Object1: s2, Schema2: s2, Object2: s1, Kind1: ecr.Kind(n % 5), Kind2: ecr.KindEntity,
				Equivalent: n, SmallerAttrs: -n, Ratio: ratio},
			{Schema1: s2, Ratio: 1 - ratio},
		})
		checkMatrix(t, "matrix", &equivalence.Matrix{
			Schema1: s1, Schema2: s2, Rows: []string{s1, s2}, Cols: []string{s2},
			Counts: [][]int{{n}, {-n, n / 3}},
		})
	})
}
