package assertion

import (
	"testing"
	"testing/quick"
)

// TestScreen9Scenario reproduces the paper's Assertion Conflict Resolution
// example: sc3.Instructor 'contained in' sc4.Grad_student and
// sc4.Grad_student 'contained in' sc4.Student derive
// sc3.Instructor 'contained in' sc4.Student; a new assertion that
// Instructor and Student are disjoint then conflicts.
func TestScreen9Scenario(t *testing.T) {
	s := NewSet()
	instructor := key("sc3", "Instructor")
	grad := key("sc4", "Grad_student")
	student := key("sc4", "Student")

	if err := s.Assert(instructor, grad, ContainedIn); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(grad, student, ContainedIn); err != nil {
		t.Fatal(err)
	}
	res := s.Close()
	if !res.Consistent() {
		t.Fatalf("unexpected conflicts: %v", res.Conflicts)
	}
	if len(res.Derived) != 1 {
		t.Fatalf("derived = %+v, want 1 entry", res.Derived)
	}
	d := res.Derived[0]
	if s.Kind(instructor, student) != ContainedIn {
		t.Errorf("derived kind = %v, want contained in", s.Kind(instructor, student))
	}
	if !d.Derived || len(d.Trace) != 2 {
		t.Errorf("derived entry = %+v", d)
	}

	// The DDA now states assertion 0 (disjoint & non-integrable) for the
	// pair; the tool must flag the conflict and show the derivation.
	err := s.Assert(instructor, student, DisjointNonintegrable)
	c, ok := err.(*Conflict)
	if !ok {
		t.Fatalf("want conflict, got %v", err)
	}
	if !c.Existing.Derived {
		t.Error("existing should be the derived assertion")
	}
	if len(c.Existing.Trace) != 2 {
		t.Errorf("trace = %+v, want the two supporting assertions", c.Existing.Trace)
	}

	// Resolution per the paper: change the earlier assertion in line 3
	// (Instructor in Grad_student) to disjoint; everything is consistent
	// again and Instructor/Student becomes derivable as disjoint.
	if err := s.Override(instructor, grad, DisjointNonintegrable); err != nil {
		t.Fatal(err)
	}
	res = s.Close()
	if !res.Consistent() {
		t.Fatalf("still conflicting: %v", res.Conflicts)
	}
	// Instructor/Student is no longer derivable (disjoint composed with
	// subset is ambiguous), so the DDA's original statement now goes
	// through without conflict.
	if got := s.Kind(instructor, student); got != Unspecified {
		t.Errorf("after resolution, Instructor/Student = %v, want unspecified", got)
	}
	if err := s.Assert(instructor, student, DisjointNonintegrable); err != nil {
		t.Errorf("re-asserting the DDA's statement should now succeed: %v", err)
	}
	if res := s.Close(); !res.Consistent() {
		t.Errorf("final state inconsistent: %v", res.Conflicts)
	}
}

func TestCloseDerivesEqualsChain(t *testing.T) {
	s := NewSet()
	// Employee = Person, Person = Worker => Employee = Worker (the
	// paper's introduction example).
	emp := key("a", "Employee")
	person := key("b", "Person")
	worker := key("c", "Worker")
	if err := s.Assert(emp, person, Equals); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(person, worker, Equals); err != nil {
		t.Fatal(err)
	}
	res := s.Close()
	if !res.Consistent() {
		t.Fatal(res.Conflicts)
	}
	if s.Kind(emp, worker) != Equals {
		t.Errorf("Employee/Worker = %v, want equals", s.Kind(emp, worker))
	}

	// And then "Worker cannot be a subset of Employee".
	if err := s.Assert(worker, emp, ContainedIn); err == nil {
		t.Error("subset after derived equality should conflict")
	}
}

func TestCloseTransitiveDisjoint(t *testing.T) {
	s := NewSet()
	a, b, c := key("s1", "A"), key("s2", "B"), key("s1", "C")
	// A ⊂ B, B disjoint C => A disjoint C.
	if err := s.Assert(a, b, ContainedIn); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(b, c, DisjointNonintegrable); err != nil {
		t.Fatal(err)
	}
	res := s.Close()
	if !res.Consistent() {
		t.Fatal(res.Conflicts)
	}
	if s.Kind(a, c) != DisjointNonintegrable {
		t.Errorf("A/C = %v, want disjoint", s.Kind(a, c))
	}
}

func TestCloseLongChain(t *testing.T) {
	s := NewSet()
	// a1 ⊂ a2 ⊂ ... ⊂ a6: closure derives subset for every pair.
	names := []string{"A", "B", "C", "D", "E", "F"}
	for i := 0; i+1 < len(names); i++ {
		schema1, schema2 := "s1", "s2"
		if i%2 == 1 {
			schema1, schema2 = "s2", "s1"
		}
		if err := s.Assert(key(schema1, names[i]), key(schema2, names[i+1]), ContainedIn); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Close()
	if !res.Consistent() {
		t.Fatal(res.Conflicts)
	}
	// 6 objects, 15 pairs, 5 asserted -> 10 derived.
	if len(res.Derived) != 10 {
		t.Errorf("derived %d entries, want 10", len(res.Derived))
	}
	first := key("s1", "A")
	last := key("s2", "F")
	if s.Kind(first, last) != ContainedIn {
		t.Errorf("A/F = %v", s.Kind(first, last))
	}
}

func TestCloseAmbiguousPathDerivesNothing(t *testing.T) {
	s := NewSet()
	a, b, c := key("s1", "A"), key("s2", "B"), key("s1", "C")
	// A ⊂ B, B ⊃ C: any relation between A and C is possible.
	if err := s.Assert(a, b, ContainedIn); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(c, b, ContainedIn); err != nil {
		t.Fatal(err)
	}
	res := s.Close()
	if !res.Consistent() || len(res.Derived) != 0 {
		t.Errorf("derived %v, want nothing", res.Derived)
	}
}

func TestCloseDetectsConflictViaPossibleSets(t *testing.T) {
	s := NewSet()
	a, b, c := key("s1", "A"), key("s2", "B"), key("s1", "C")
	// B ⊃ A (stored as A ⊂ B) and B overlap C exclude A = C... more
	// precisely: A ⊂ B composed with B overlap C admits {⊂, overlap,
	// disjoint}; asserting A ⊃ C must conflict.
	if err := s.Assert(a, b, ContainedIn); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(b, c, MayBe); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(a, c, Contains); err != nil {
		t.Fatal(err) // not directly contradictory; the closure must find it
	}
	res := s.Close()
	if res.Consistent() {
		t.Fatal("expected a conflict from possible-set checking")
	}
	c0 := res.Conflicts[0]
	if len(c0.Trace) != 2 {
		t.Errorf("conflict trace = %+v", c0.Trace)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := NewSet()
	if err := s.Assert(key("s1", "A"), key("s2", "B"), ContainedIn); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(key("s2", "B"), key("s1", "C"), ContainedIn); err != nil {
		t.Fatal(err)
	}
	first := s.Close()
	if len(first.Derived) != 1 {
		t.Fatalf("first close derived %d", len(first.Derived))
	}
	second := s.Close()
	if len(second.Derived) != 0 || !second.Consistent() {
		t.Errorf("second close derived %v", second.Derived)
	}
}

// TestAssertAndClose: the engine closes on every assertion and reports a
// contradiction in the returned result, whether the pair held it directly
// or the closure derived it.
func TestAssertAndClose(t *testing.T) {
	e := NewEngine()
	res := e.AssertAndClose(key("s1", "A"), key("s2", "B"), Equals)
	if !res.Consistent() {
		t.Fatal(res.Conflicts)
	}
	res = e.AssertAndClose(key("s2", "B"), key("s1", "C"), Equals)
	if !res.Consistent() || len(res.Derived) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// A conflicting direct assertion comes back as the first conflict.
	res = e.AssertAndClose(key("s1", "A"), key("s2", "B"), DisjointNonintegrable)
	if res.Consistent() {
		t.Fatal("expected conflict")
	}
	// A contradiction only the closure sees: the pair (Y, B) holds
	// nothing, but Y inside B = A, which is disjoint from X, cannot
	// contain X.
	for _, st := range []Statement{
		{A: key("s1", "A"), B: key("s2", "X"), Kind: DisjointNonintegrable},
		{A: key("s1", "Y"), B: key("s2", "X"), Kind: Contains},
	} {
		if res := e.AssertAndClose(st.A, st.B, st.Kind); !res.Consistent() {
			t.Fatal(res.Conflicts)
		}
	}
	if _, held := e.Entry(key("s1", "Y"), key("s2", "B")); held {
		t.Fatal("(Y, B) should hold no entry yet")
	}
	res = e.AssertAndClose(key("s1", "Y"), key("s2", "B"), ContainedIn)
	if res.Consistent() || e.Consistent() {
		t.Fatal("expected the derived conflict")
	}
}

// TestClosurePropertyConsistentChains: random subset/equals chains must
// always close without conflicts, and the closure must be sound: every
// derived relation must be admitted by direct set simulation.
func TestClosurePropertyConsistentChains(t *testing.T) {
	f := func(seed int64) bool {
		x := uint64(seed)*6364136223846793005 + 1442695040888963407
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		// Build nested sets: object i is the set {0..bound[i]} so that
		// relations are known ground truth.
		const n = 6
		bounds := make([]int, n)
		for i := range bounds {
			bounds[i] = 1 + next(5)
		}
		relOf := func(i, j int) Kind {
			switch {
			case bounds[i] == bounds[j]:
				return Equals
			case bounds[i] < bounds[j]:
				return ContainedIn
			default:
				return Contains
			}
		}
		s := NewSet()
		objs := make([]ObjKey, n)
		for i := range objs {
			schema := "s1"
			if i%2 == 1 {
				schema = "s2"
			}
			objs[i] = key(schema, string(rune('A'+i)))
		}
		// Assert a random subset of the true relations.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if next(2) == 0 {
					if err := s.Assert(objs[i], objs[j], relOf(i, j)); err != nil {
						return false
					}
				}
			}
		}
		res := s.Close()
		if !res.Consistent() {
			return false
		}
		// Soundness: every derived entry matches ground truth.
		for _, d := range res.Derived {
			var i, j int
			for k, o := range objs {
				if o == d.A {
					i = k
				}
				if o == d.B {
					j = k
				}
			}
			if d.Kind != relOf(i, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestClosureDetectsInjectedContradiction: from a consistent ground-truth
// model, derive the closure, pick any determined pair, retract everything
// derived, and assert a relation the constraint sets rule out: the closure
// must flag a conflict.
func TestClosureDetectsInjectedContradiction(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		x := uint64(seed)*2654435761 + 99
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		// Nested-set ground truth.
		const n = 5
		bounds := make([]int, n)
		for i := range bounds {
			bounds[i] = 1 + next(4)
		}
		relOf := func(i, j int) Kind {
			switch {
			case bounds[i] == bounds[j]:
				return Equals
			case bounds[i] < bounds[j]:
				return ContainedIn
			default:
				return Contains
			}
		}
		objs := make([]ObjKey, n)
		for i := range objs {
			schema := "s1"
			if i%2 == 1 {
				schema = "s2"
			}
			objs[i] = key(schema, string(rune('A'+i)))
		}
		s := NewSet()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if err := s.Assert(objs[i], objs[j], relOf(i, j)); err != nil {
					t.Fatalf("seed %d: ground truth rejected: %v", seed, err)
				}
			}
		}
		if res := s.Close(); !res.Consistent() {
			t.Fatalf("seed %d: ground truth inconsistent", seed)
		}
		// Flip one pair to a contradictory relation: nested sets are
		// never disjoint, so disjoint always contradicts.
		i, j := next(n), next(n)
		for i == j {
			j = next(n)
		}
		err := s.Assert(objs[i], objs[j], DisjointNonintegrable)
		if err == nil {
			// Direct assert may pass only if the pair had no entry,
			// which cannot happen here (all pairs asserted).
			t.Fatalf("seed %d: contradiction accepted", seed)
		}
		if _, ok := err.(*Conflict); !ok {
			t.Fatalf("seed %d: got %v", seed, err)
		}
	}
}
