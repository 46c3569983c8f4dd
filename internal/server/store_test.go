package server

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/ecr"
	"repro/internal/paperex"
)

// paperStore returns a store loaded with the running example's schemas.
func paperStore(t testing.TB) *Store {
	t.Helper()
	st := NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}); err != nil {
		t.Fatal(err)
	}
	return st
}

// declarePaperEquivalences declares the five equivalences of the running
// example.
func declarePaperEquivalences(t testing.TB, st *Store) {
	t.Helper()
	for _, pair := range [][4]string{
		{"sc1", "Student.Name", "sc2", "Grad_student.Name"},
		{"sc1", "Student.Name", "sc2", "Faculty.Name"},
		{"sc1", "Student.GPA", "sc2", "Grad_student.GPA"},
		{"sc1", "Department.Dname", "sc2", "Department.Dname"},
		{"sc1", "Majors.Since", "sc2", "Stud_major.Since"},
	} {
		if err := st.DeclareEquivalence(pair[0], pair[1], pair[2], pair[3]); err != nil {
			t.Fatal(err)
		}
	}
}

// assertPaperAssertions posts the running example's assertions.
func assertPaperAssertions(t testing.TB, st *Store) {
	t.Helper()
	for _, a := range []struct {
		o1   string
		code int
		o2   string
		rel  bool
	}{
		{"Department", 1, "Department", false},
		{"Student", 3, "Grad_student", false},
		{"Student", 4, "Faculty", false},
		{"Majors", 1, "Stud_major", true},
	} {
		res, _, err := st.Assert("sc1", a.o1, a.code, "sc2", a.o2, a.rel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent() {
			t.Fatalf("assertion %v conflicted: %v", a, res.Conflicts)
		}
	}
}

func TestStoreAddListRemove(t *testing.T) {
	st := paperStore(t)
	if got := st.SchemaNames(); len(got) != 2 || got[0] != "sc1" || got[1] != "sc2" {
		t.Errorf("SchemaNames = %v", got)
	}
	list := st.Schemas()
	if len(list) != 2 || list[0].Name != "sc1" || list[0].Entities != 2 || list[0].Relationships != 1 {
		t.Errorf("Schemas = %+v", list)
	}
	if st.Schema("sc1") == nil || st.Schema("nope") != nil {
		t.Error("Schema lookup wrong")
	}
	// The returned schema is a clone: mutating it must not affect the store.
	clone := st.Schema("sc1")
	clone.Name = "mutated"
	if st.Schema("sc1") == nil {
		t.Error("clone mutation leaked into store")
	}
	if found, err := st.RemoveSchema("nope"); err != nil || found {
		t.Errorf("RemoveSchema(nope) = %v, %v; want false, nil", found, err)
	}
	if found, err := st.RemoveSchema("sc2"); err != nil || !found {
		t.Errorf("RemoveSchema(sc2) = %v, %v; want true, nil", found, err)
	}
	if got := st.SchemaNames(); len(got) != 1 {
		t.Errorf("after remove, SchemaNames = %v", got)
	}
}

func TestStoreAddSchemasAllOrNone(t *testing.T) {
	st := paperStore(t)
	dup := paperex.Sc1()
	fresh := ecr.NewSchema("fresh")
	if err := fresh.AddObject(&ecr.ObjectClass{
		Name: "Thing", Kind: ecr.KindEntity,
		Attributes: []ecr.Attribute{{Name: "Id", Domain: "int", Key: true}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddSchemas([]*ecr.Schema{fresh, dup}); err == nil {
		t.Fatal("duplicate add succeeded")
	}
	// The batch must be rejected atomically: "fresh" must not be present.
	if st.Schema("fresh") != nil {
		t.Error("partial add: fresh was registered despite the batch failing")
	}
}

func TestStoreAddSchemasDDL(t *testing.T) {
	st := NewStore()
	ddl, err := os.ReadFile("../../testdata/paper.ecr")
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.AddSchemasDDL(string(ddl))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "sc1" || names[1] != "sc2" {
		t.Errorf("added = %v", names)
	}
	if _, err := st.AddSchemasDDL("schema broken {"); err == nil {
		t.Error("bad DDL accepted")
	}
}

func TestStoreEquivalences(t *testing.T) {
	st := paperStore(t)
	declarePaperEquivalences(t, st)
	classes := st.EquivalenceClasses()
	if len(classes) != 4 {
		t.Fatalf("got %d classes, want 4", len(classes))
	}
	// The Name class has three members (Screen 7 of the paper).
	found := false
	for _, class := range classes {
		if len(class) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no three-member Name class in %v", classes)
	}
	if err := st.DeclareEquivalence("sc1", "Student.Name", "nope", "X.Y"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown schema error = %v", err)
	}
	if err := st.DeclareEquivalence("sc1", "Student.Nope", "sc2", "Faculty.Name"); err == nil {
		t.Error("bad attribute accepted")
	}
}

func TestStoreRankedPairsAndSuggestions(t *testing.T) {
	st := paperStore(t)
	declarePaperEquivalences(t, st)
	pairs, err := rankedPairs(st, "sc1", "sc2", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || pairs[0].Ratio < pairs[len(pairs)-1].Ratio {
		t.Errorf("pairs not ranked: %+v", pairs)
	}
	if _, err := rankedPairs(st, "sc1", "nope", false); err == nil {
		t.Error("unknown schema accepted")
	}
	cands, err := st.Suggest("sc1", "sc2", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Score < 0.9 {
			t.Errorf("suggestion under threshold: %+v", c)
		}
	}
	if _, err := st.Suggest("sc1", "sc2", 1.5); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestStoreAssertValidation(t *testing.T) {
	st := paperStore(t)
	if _, _, err := st.Assert("sc1", "Nope", 1, "sc2", "Department", false); err == nil {
		t.Error("unknown object accepted")
	}
	if _, _, err := st.Assert("sc1", "Student", 9, "sc2", "Grad_student", false); err == nil {
		t.Error("bad code accepted")
	}
	if _, _, err := st.Assert("sc1", "Majors", 1, "sc2", "Nope", true); err == nil {
		t.Error("unknown relationship accepted")
	}
}

func TestStoreAssertConflict(t *testing.T) {
	st := NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{paperex.Sc3(), paperex.Sc4()}); err != nil {
		t.Fatal(err)
	}
	// Instructor contained-in Grad_student, then Instructor disjoint from
	// Grad_student: the second assertion contradicts the held one and the
	// closure reports the conflict while keeping the matrix unchanged.
	if res, _, err := st.Assert("sc3", "Instructor", 2, "sc4", "Grad_student", false); err != nil || !res.Consistent() {
		t.Fatalf("setup assertion failed: %v %v", err, res.Conflicts)
	}
	res, _, err := st.Assert("sc3", "Instructor", 0, "sc4", "Grad_student", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent() {
		t.Error("expected a conflict")
	}
}

func TestStoreIntegrateCachesPerGeneration(t *testing.T) {
	st := paperStore(t)
	declarePaperEquivalences(t, st)
	assertPaperAssertions(t, st)

	res1, err := st.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Schema.Name != "INT_sc1_sc2" {
		t.Errorf("integrated name = %q", res1.Schema.Name)
	}
	res2, err := st.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("second integrate did not hit the cache")
	}
	// A mutation invalidates: the next integrate recomputes.
	if err := st.DeclareEquivalence("sc1", "Majors.Since", "sc2", "Works.Percent_time"); err != nil {
		t.Fatal(err)
	}
	res3, err := st.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if res3 == res1 {
		t.Error("stale cached result returned after mutation")
	}
}

// Schema names may contain '|': the pairs (a|b, c) and (a, b|c) must not
// share a cached integration.
func TestStoreIntegrateCacheKeysDoNotCollideOnPipe(t *testing.T) {
	st := NewStore()
	var schemas []*ecr.Schema
	for _, name := range []string{"a|b", "c", "a", "b|c"} {
		s := ecr.NewSchema(name)
		if err := s.AddObject(&ecr.ObjectClass{Name: "X", Kind: ecr.KindEntity,
			Attributes: []ecr.Attribute{{Name: "K", Domain: "int", Key: true}}}); err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, s)
	}
	if _, err := st.AddSchemas(schemas); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Integrate("a|b", "c"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Integrate("a", "b|c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Name != "INT_a_b|c" {
		t.Errorf("Integrate(a, b|c) = %q, want INT_a_b|c", res.Schema.Name)
	}
}

func TestStoreRunSpec(t *testing.T) {
	st := paperStore(t)
	spec, err := os.ReadFile("../../testdata/paper.spec")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.RunSpec(string(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Name != "INT_sc1_sc2" {
		t.Errorf("integrated name = %q", res.Schema.Name)
	}
	if res.Schema.Object("E_Department") == nil {
		t.Error("E_Department missing from integrated schema")
	}
	if _, err := st.RunSpec("not a spec"); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := st.RunSpec("schemas nope1 nope2"); err == nil {
		t.Error("spec over unknown schemas accepted")
	}
}

// TestStoreConcurrentHammer drives every store operation from many
// goroutines at once; run with -race this is the store's correctness gate.
func TestStoreConcurrentHammer(t *testing.T) {
	st := paperStore(t)
	declarePaperEquivalences(t, st)
	assertPaperAssertions(t, st)

	const goroutines = 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch g % 6 {
				case 0: // schema churn under unique names
					name := fmt.Sprintf("extra_%d_%d", g, i)
					s := ecr.NewSchema(name)
					if err := s.AddObject(&ecr.ObjectClass{
						Name: "Thing", Kind: ecr.KindEntity,
						Attributes: []ecr.Attribute{{Name: "Id", Domain: "int", Key: true}},
					}); err != nil {
						t.Error(err)
						return
					}
					if _, err := st.AddSchemas([]*ecr.Schema{s}); err != nil {
						t.Error(err)
						return
					}
					st.RemoveSchema(name)
				case 1:
					st.Schemas()
					st.SchemaNames()
					_ = st.Schema("sc1")
				case 2:
					if _, err := rankedPairs(st, "sc1", "sc2", i%2 == 1); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := st.Integrate("sc1", "sc2"); err != nil {
						t.Error(err)
						return
					}
				case 4:
					if _, err := st.RunSpec("schemas sc1 sc2\nassert Department 1 Department"); err != nil {
						t.Error(err)
						return
					}
				case 5:
					st.EquivalenceClasses()
					if _, err := st.Assertions("sc1", "sc2", false); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The store must still integrate correctly after the churn.
	res, err := st.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Object("E_Department") == nil {
		t.Error("E_Department missing after hammer")
	}
}
