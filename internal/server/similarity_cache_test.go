package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/ecr"
	"repro/internal/resemblance"
)

// cacheSchemas builds two small schemas with overlapping attribute names
// for the cache-correctness tests.
func cacheSchemas(t *testing.T) (*ecr.Schema, *ecr.Schema) {
	t.Helper()
	mk := func(name string, objs map[string][]string) *ecr.Schema {
		s := ecr.NewSchema(name)
		for _, obj := range []string{"Student", "Department", "Course"} {
			attrs, ok := objs[obj]
			if !ok {
				continue
			}
			o := &ecr.ObjectClass{Name: obj, Kind: ecr.KindEntity}
			for i, a := range attrs {
				o.Attributes = append(o.Attributes, ecr.Attribute{Name: a, Domain: "char", Key: i == 0})
			}
			if err := s.AddObject(o); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	s1 := mk("u1", map[string][]string{
		"Student":    {"Name", "GPA"},
		"Department": {"Dname", "College"},
	})
	s2 := mk("u2", map[string][]string{
		"Student": {"SName", "Level"},
		"Course":  {"Cname", "Credits"},
	})
	return s1, s2
}

// freshDense recomputes the ranking from scratch on the store's live
// workspace state — the reference the cached path must always match.
func freshDense(st *Store, schema1, schema2 string, rel bool) []resemblance.Pair {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s1, s2 := st.ws.Schema(schema1), st.ws.Schema(schema2)
	if rel {
		return resemblance.RankRelationships(s1, s2, st.ws.Registry())
	}
	return resemblance.RankObjects(s1, s2, st.ws.Registry())
}

// rankedPairs reads the store's cached ranking and expands it to the full
// pair list.
func rankedPairs(st *Store, schema1, schema2 string, rel bool) ([]resemblance.Pair, error) {
	r, err := st.RankedPairs(schema1, schema2, rel)
	if err != nil {
		return nil, err
	}
	return r.Pairs(), nil
}

func requireSameRanking(t *testing.T, label string, got, want []resemblance.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d differs:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRankedPairsCacheCorrectness mutates the store through every path
// that must invalidate (or must not invalidate) rankings and checks each
// read against a fresh dense recompute.
func TestRankedPairsCacheCorrectness(t *testing.T) {
	s1, s2 := cacheSchemas(t)
	st := NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{s1, s2}); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got, err := rankedPairs(st, "u1", "u2", false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameRanking(t, label, got, freshDense(st, "u1", "u2", false))
	}

	check("initial")
	check("cached-initial") // second read comes from cache

	if err := st.DeclareEquivalence("u1", "Student.Name", "u2", "Student.SName"); err != nil {
		t.Fatal(err)
	}
	check("after-declare")

	if err := st.DeclareEquivalence("u1", "Department.Dname", "u2", "Course.Cname"); err != nil {
		t.Fatal(err)
	}
	check("after-second-declare")

	// Assertions bump the store generation but must NOT drop the ranking
	// cache: the ranking after an assertion still matches dense, via a hit.
	hitsBefore, _ := st.SimilarityCacheStats()
	if _, _, err := st.Assert("u1", "Student", 1, "u2", "Student", false); err != nil {
		t.Fatal(err)
	}
	check("after-assert")
	if hitsAfter, _ := st.SimilarityCacheStats(); hitsAfter <= hitsBefore {
		t.Fatal("assertion invalidated the similarity cache (expected a hit)")
	}

	// Schema replacement: remove u2 and add a namesake lacking SName. The
	// stale equivalence must stop counting, exactly as dense computes it.
	if _, err := st.RemoveSchema("u2"); err != nil {
		t.Fatal(err)
	}
	s2v2 := ecr.NewSchema("u2")
	if err := s2v2.AddObject(&ecr.ObjectClass{
		Name: "Student", Kind: ecr.KindEntity,
		Attributes: []ecr.Attribute{
			{Name: "Ident", Domain: "char", Key: true},
			{Name: "Level", Domain: "char"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddSchemas([]*ecr.Schema{s2v2}); err != nil {
		t.Fatal(err)
	}
	check("after-schema-replace")
	got, err := rankedPairs(st, "u1", "u2", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.Equivalent != 0 {
			t.Fatalf("stale equivalence survived schema replace: %+v", p)
		}
	}
}

// TestMatrixEndpointAndCaching exercises GET /v1/matrix end to end and the
// cache counters it feeds.
func TestMatrixEndpointAndCaching(t *testing.T) {
	s1, s2 := cacheSchemas(t)
	srv := New(Config{})
	if _, err := srv.Store().AddSchemas([]*ecr.Schema{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().DeclareEquivalence("u1", "Student.Name", "u2", "Student.SName"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Matrix json.RawMessage `json:"matrix"`
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		if want != http.StatusOK {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Matrix
	}

	raw := get("/v1/matrix?schema1=u1&schema2=u2", http.StatusOK)
	var m struct {
		Schema1 string   `json:"schema1"`
		Schema2 string   `json:"schema2"`
		Rows    []string `json:"rows"`
		Cols    []string `json:"cols"`
		Counts  [][]int  `json:"counts"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema1 != "u1" || m.Schema2 != "u2" {
		t.Fatalf("matrix names %s×%s", m.Schema1, m.Schema2)
	}
	if len(m.Rows) != 2 || len(m.Cols) != 2 {
		t.Fatalf("matrix shape %dx%d, want 2x2", len(m.Rows), len(m.Cols))
	}
	// Student×Student shares one equivalence; every other cell is 0.
	found := false
	for i, r := range m.Rows {
		for j, c := range m.Cols {
			want := 0
			if r == "Student" && c == "Student" {
				want = 1
				found = true
			}
			if m.Counts[i][j] != want {
				t.Fatalf("counts[%s][%s] = %d, want %d", r, c, m.Counts[i][j], want)
			}
		}
	}
	if !found {
		t.Fatal("Student row/col missing")
	}

	get("/v1/matrix?schema1=u1&schema2=ghost", http.StatusNotFound)
	get("/v1/matrix?schema1=u1", http.StatusBadRequest)
	get("/v1/matrix?schema1=u1&schema2=u2&kind=bogus", http.StatusBadRequest)

	// A repeat read is a cache hit, visible in /metrics.
	get("/v1/matrix?schema1=u1&schema2=u2", http.StatusOK)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Hits   uint64 `json:"similarity_cache_hits"`
		Misses uint64 `json:"similarity_cache_misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Hits == 0 {
		t.Fatal("metrics report no similarity cache hits after a repeat read")
	}
	if snap.Misses == 0 {
		t.Fatal("metrics report no similarity cache misses despite a cold read")
	}
}

// TestConcurrentRankedPairsAndDeclares hammers cached reads against
// equivalence declarations under -race, then verifies the final ranking
// matches a fresh dense recompute.
func TestConcurrentRankedPairsAndDeclares(t *testing.T) {
	s1 := ecr.NewSchema("c1")
	s2 := ecr.NewSchema("c2")
	const objs = 8
	for i := 0; i < objs; i++ {
		for s, schema := range []*ecr.Schema{s1, s2} {
			o := &ecr.ObjectClass{Name: fmt.Sprintf("O%d", i), Kind: ecr.KindEntity}
			for a := 0; a < 4; a++ {
				o.Attributes = append(o.Attributes, ecr.Attribute{
					Name: fmt.Sprintf("A%d_%d", s, a), Domain: "char", Key: a == 0,
				})
			}
			if err := schema.AddObject(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{s1, s2}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rel bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rankedPairs(st, "c1", "c2", rel); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Matrix("c1", "c2", rel); err != nil {
					t.Error(err)
					return
				}
			}
		}(r%2 == 1)
	}
	for i := 0; i < objs; i++ {
		for a := 0; a < 4; a++ {
			err := st.DeclareEquivalence("c1",
				fmt.Sprintf("O%d.A0_%d", i, a),
				"c2", fmt.Sprintf("O%d.A1_%d", (i+a)%objs, a))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	got, err := rankedPairs(st, "c1", "c2", false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, "final", got, freshDense(st, "c1", "c2", false))
}
