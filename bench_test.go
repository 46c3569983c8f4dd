// The benchmark harness regenerates every figure and screen of the paper
// (it has no numeric tables — it is an interactive-tool paper, so its
// reproducible artifacts are the worked figures and the twelve screens) and
// adds the scalability and ablation experiments catalogued in DESIGN.md
// (X1-X9). EXPERIMENTS.md records paper-vs-measured for each identifier.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/instance"
	"repro/internal/integrate"
	"repro/internal/mapping"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/resemblance"
	"repro/internal/session"
	"repro/internal/translate"
	"repro/internal/workload"
)

// pairWorkspace starts a pairwise integration of s1 and s2.
func pairWorkspace(tb testing.TB, s1, s2 *ecr.Schema) *session.Workspace {
	tb.Helper()
	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := ws.AddSchema(s); err != nil {
			tb.Fatal(err)
		}
	}
	return ws
}

// declareEquivalent resolves ref1 ("object.attribute") against schema s1
// and ref2 against s2 and places both attributes in one equivalence class.
func declareEquivalent(tb testing.TB, ws *session.Workspace, s1, s2, ref1, ref2 string) {
	tb.Helper()
	a, err := core.ResolveAttr(ws.Schema(s1), ref1)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := core.ResolveAttr(ws.Schema(s2), ref2)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ws.Registry().Declare(a, b); err != nil {
		tb.Fatal(err)
	}
}

// assertClosed states s1.o1 <kind> s2.o2 on eng and fails on any conflict,
// direct or derived.
func assertClosed(tb testing.TB, eng *assertion.Engine, s1, o1 string, kind assertion.Kind, s2, o2 string) {
	tb.Helper()
	res := eng.AssertAndClose(assertion.ObjKey{Schema: s1, Object: o1}, assertion.ObjKey{Schema: s2, Object: o2}, kind)
	if !res.Consistent() {
		tb.Fatal(res.Conflicts[0])
	}
}

// paperIntegration assembles the full inputs of the running example: the
// equivalences of Screen 7 and the assertions of Screen 8.
func paperIntegration(b testing.TB) *session.Workspace {
	ws := pairWorkspace(b, paperex.Sc1(), paperex.Sc2())
	for _, p := range [][2]string{
		{"Student.Name", "Grad_student.Name"},
		{"Student.Name", "Faculty.Name"},
		{"Student.GPA", "Grad_student.GPA"},
		{"Department.Dname", "Department.Dname"},
		{"Majors.Since", "Stud_major.Since"},
	} {
		declareEquivalent(b, ws, "sc1", "sc2", p[0], p[1])
	}
	objs := ws.ObjectAssertions("sc1", "sc2")
	assertClosed(b, objs, "sc1", "Department", assertion.Equals, "sc2", "Department")
	assertClosed(b, objs, "sc1", "Student", assertion.Contains, "sc2", "Grad_student")
	assertClosed(b, objs, "sc1", "Student", assertion.DisjointIntegrable, "sc2", "Faculty")
	assertClosed(b, ws.RelationshipAssertions("sc1", "sc2"), "sc1", "Majors", assertion.Equals, "sc2", "Stud_major")
	return ws
}

// --- F1: Figure 1, the four-phase pipeline end to end ---

func BenchmarkFigure1Pipeline(b *testing.B) {
	script := session.PaperScript()
	for i := 0; i < b.N; i++ {
		io := session.NewScriptIO(script...)
		ws := session.NewWorkspace()
		if err := session.New(ws, io).Run(); err != nil {
			b.Fatal(err)
		}
		if _, err := ws.Integrate("sc1", "sc2", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2a-F2e: the five object-integration outcomes of Figure 2 ---

func benchFigure2(b *testing.B, mk func() (*ecr.Schema, *ecr.Schema), kind assertion.Kind, equiv [2]string, wantObject string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s1, s2 := mk()
		ws := pairWorkspace(b, s1, s2)
		declareEquivalent(b, ws, s1.Name, s2.Name, equiv[0], equiv[1])
		assertClosed(b, ws.ObjectAssertions(s1.Name, s2.Name), s1.Name, s1.Objects[0].Name, kind, s2.Name, s2.Objects[0].Name)
		res, err := ws.Integrate(s1.Name, s2.Name, "")
		if err != nil {
			b.Fatal(err)
		}
		if wantObject != "" && res.Schema.Object(wantObject) == nil {
			b.Fatalf("expected %s in result", wantObject)
		}
	}
}

func BenchmarkFigure2aEquals(b *testing.B) {
	benchFigure2(b, paperex.Fig2aSchemas, assertion.Equals,
		[2]string{"Department.Dname", "Department.Dname"}, "E_Department")
}

func BenchmarkFigure2bContains(b *testing.B) {
	benchFigure2(b, paperex.Fig2bSchemas, assertion.Contains,
		[2]string{"Student.Name", "Grad_student.Name"}, "Student")
}

func BenchmarkFigure2cOverlap(b *testing.B) {
	benchFigure2(b, paperex.Fig2cSchemas, assertion.MayBe,
		[2]string{"Grad_student.Name", "Instructor.Name"}, "D_Grad_Inst")
}

func BenchmarkFigure2dDisjointIntegrable(b *testing.B) {
	benchFigure2(b, paperex.Fig2dSchemas, assertion.DisjointIntegrable,
		[2]string{"Secretary.Name", "Engineer.Name"}, "D_Secr_Engi")
}

func BenchmarkFigure2eDisjointNonintegrable(b *testing.B) {
	benchFigure2(b, paperex.Fig2eSchemas, assertion.DisjointNonintegrable,
		[2]string{"Under_Grad_Student.Name", "Full_Professor.Name"}, "Under_Grad_Student")
}

// --- F3/F4: the component schemas, constructed, validated and
// round-tripped through the DDL ---

func benchSchemaRoundTrip(b *testing.B, mk func() *ecr.Schema) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := mk()
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
		text := ecr.FormatSchema(s)
		if _, err := ecr.ParseSchema(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3SchemaSc1(b *testing.B) { benchSchemaRoundTrip(b, paperex.Sc1) }
func BenchmarkFigure4SchemaSc2(b *testing.B) { benchSchemaRoundTrip(b, paperex.Sc2) }

// --- F5: the integrated schema of Figure 5 ---

func BenchmarkFigure5Integration(b *testing.B) {
	ws := paperIntegration(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ws.Integrate("sc1", "sc2", "")
		if err != nil {
			b.Fatal(err)
		}
		if res.Schema.Object("D_Stud_Facu") == nil || res.Schema.Object("E_Department") == nil {
			b.Fatal("figure 5 shape missing")
		}
	}
}

// --- F6: the result-viewing screen control flow of Figure 6 ---

func BenchmarkFigure6ScreenFlow(b *testing.B) {
	// Drive only task 6 over a prepared workspace: Object Class Screen ->
	// Category Screen -> Attribute Screen -> Component Attribute Screens
	// -> Equivalent Screen -> Relationship Screen -> Participating
	// Objects Screen, the arcs of Figure 6.
	ws := preparedWorkspace(b)
	browse := []string{
		"6", "sc1", "sc2",
		"Student c", "a", "1", "", "", "e", "q", "", "x",
		"E_Stud_Majo r", "p", "", "x",
		"x", "e",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := session.NewScriptIO(browse...)
		if err := session.New(ws, io).Run(); err != nil {
			b.Fatal(err)
		}
		if len(io.ScreensContaining("Component Attribute Screen")) != 2 {
			b.Fatal("figure 6 flow incomplete")
		}
	}
}

// preparedWorkspace loads the paper example into a workspace via the
// scripted phases 1-5 (without task 6).
func preparedWorkspace(b testing.TB) *session.Workspace {
	full := session.PaperScript()
	// Cut before the "--- Task 6 ---" section: find the "6" input that
	// follows the relationship assertions.
	cut := len(full)
	for i := range full {
		if full[i] == "6" && i > 40 {
			cut = i
			break
		}
	}
	io := session.NewScriptIO(append(append([]string{}, full[:cut]...), "e")...)
	ws := session.NewWorkspace()
	if err := session.New(ws, io).Run(); err != nil {
		b.Fatal(err)
	}
	return ws
}

// --- S1-S12: the tool's screens ---

func BenchmarkScreen1MainMenu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		io := session.NewScriptIO("e")
		if err := session.New(session.NewWorkspace(), io).Run(); err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(io.LastScreen(), "Main Menu") {
			b.Fatal("main menu missing")
		}
	}
}

func BenchmarkScreens2to5Collection(b *testing.B) {
	full := session.PaperScript()
	// The schema-collection prefix ends at the first task-2 selection.
	cut := 0
	for i, in := range full {
		if in == "2" && i > 10 {
			cut = i
			break
		}
	}
	script := append(append([]string{}, full[:cut]...), "e")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := session.NewScriptIO(script...)
		ws := session.NewWorkspace()
		if err := session.New(ws, io).Run(); err != nil {
			b.Fatal(err)
		}
		if ws.Schema("sc1") == nil || ws.Schema("sc2") == nil {
			b.Fatal("collection incomplete")
		}
	}
}

func BenchmarkScreens6to7Equivalence(b *testing.B) {
	base := sessionWithSchemas(b)
	script := []string{
		"2", "sc1", "sc2",
		"1 1", "a 1 1", "a 2 2", "e",
		"1 2", "a 1 1", "e",
		"2 3", "a 1 1", "e",
		"e", "e",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := cloneWorkspaceSchemas(b, base)
		io := session.NewScriptIO(script...)
		if err := session.New(ws, io).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScreen8AssertionCollection(b *testing.B) {
	ws := paperIntegration(b)
	s1, s2 := ws.Schema("sc1"), ws.Schema("sc2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := resemblance.RankObjects(s1, s2, ws.Registry())
		if len(pairs) == 0 || pairs[0].Ratio != 0.5 {
			b.Fatal("ranking wrong")
		}
	}
}

func BenchmarkScreen9ConflictResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := assertion.NewSet()
		instructor := assertion.ObjKey{Schema: "sc3", Object: "Instructor"}
		grad := assertion.ObjKey{Schema: "sc4", Object: "Grad_student"}
		student := assertion.ObjKey{Schema: "sc4", Object: "Student"}
		if err := set.Assert(instructor, grad, assertion.ContainedIn); err != nil {
			b.Fatal(err)
		}
		if err := set.Assert(grad, student, assertion.ContainedIn); err != nil {
			b.Fatal(err)
		}
		if res := set.Close(); !res.Consistent() {
			b.Fatal("unexpected conflict")
		}
		err := set.Assert(instructor, student, assertion.DisjointNonintegrable)
		if _, ok := err.(*assertion.Conflict); !ok {
			b.Fatal("expected the Screen 9 conflict")
		}
	}
}

func BenchmarkScreens10to12ResultViews(b *testing.B) {
	ws := preparedWorkspace(b)
	if _, err := ws.Integrate("sc1", "sc2", ""); err != nil {
		b.Fatal(err)
	}
	script := []string{
		"6", "sc1", "sc2",
		"Student c", "a", "1", "", "", "e", "x",
		"x", "e",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := session.NewScriptIO(script...)
		if err := session.New(ws, io).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func sessionWithSchemas(b testing.TB) *session.Workspace {
	ws := session.NewWorkspace()
	if err := ws.AddSchema(paperex.Sc1()); err != nil {
		b.Fatal(err)
	}
	if err := ws.AddSchema(paperex.Sc2()); err != nil {
		b.Fatal(err)
	}
	return ws
}

func cloneWorkspaceSchemas(b testing.TB, src *session.Workspace) *session.Workspace {
	ws := session.NewWorkspace()
	for _, s := range src.Schemas() {
		if err := ws.AddSchema(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	return ws
}

// --- X1: resemblance-ranking scalability sweep ---

func BenchmarkRankingSweep(b *testing.B) {
	for _, n := range []int{10, 20, 50, 100, 200} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			w := genWorkload(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs := resemblance.RankObjects(w.S1, w.S2, w.Registry)
				if len(pairs) != n*n {
					b.Fatal("pair count wrong")
				}
			}
		})
	}
}

// --- X2: assertion closure and consistency sweep ---

func BenchmarkClosureSweep(b *testing.B) {
	for _, n := range []int{10, 20, 50, 100} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set := assertion.NewSet()
				for j := 0; j+1 < n; j++ {
					s1, s2 := "a", "b"
					if j%2 == 1 {
						s1, s2 = "b", "a"
					}
					err := set.Assert(
						assertion.ObjKey{Schema: s1, Object: fmt.Sprintf("O%03d", j)},
						assertion.ObjKey{Schema: s2, Object: fmt.Sprintf("O%03d", j+1)},
						assertion.ContainedIn)
					if err != nil {
						b.Fatal(err)
					}
				}
				res := set.Close()
				if !res.Consistent() {
					b.Fatal("inconsistent")
				}
				want := n*(n-1)/2 - (n - 1)
				if len(res.Derived) != want {
					b.Fatalf("derived %d, want %d", len(res.Derived), want)
				}
			}
		})
	}
}

// --- X3: full-integration scalability sweep ---

func BenchmarkIntegrationSweep(b *testing.B) {
	for _, n := range []int{10, 20, 50, 100} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			w := genWorkload(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := integrate.Integrate(integrate.Input{
					S1: w.S1, S2: w.S2,
					Registry:      w.Registry,
					Objects:       w.Objects,
					Relationships: w.Relationships,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Schema.Objects) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func genWorkload(b testing.TB, n int) *workload.Workload {
	cfg := workload.DefaultConfig(int64(n))
	cfg.Objects = n
	cfg.Relationships = n / 3
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// --- X4: n-ary integration by repeated binary integration ---

func BenchmarkNaryIntegration(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("schemas=%d", k), func(b *testing.B) {
			// k schemas, each with a Department to merge into the
			// accumulated schema.
			mk := func(i int) *ecr.Schema {
				s := ecr.NewSchema(fmt.Sprintf("db%02d", i))
				if err := s.AddObject(&ecr.ObjectClass{
					Name: "Department", Kind: ecr.KindEntity,
					Attributes: []ecr.Attribute{
						{Name: "Dname", Domain: "char", Key: true},
						{Name: fmt.Sprintf("Extra%02d", i), Domain: "int"},
					},
				}); err != nil {
					b.Fatal(err)
				}
				return s
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps := make([]integrate.NAryStep, 0, k-1)
				for j := 1; j < k; j++ {
					next := mk(j)
					steps = append(steps, integrate.NAryStep{
						Next: next,
						Prepare: func(acc *ecr.Schema) (*equivalence.Registry, *assertion.Set, *assertion.Set, error) {
							// The accumulated schema holds exactly one
							// (possibly re-merged) department class.
							target := acc.Objects[0].Name
							set := assertion.NewSet()
							err := set.Assert(
								assertion.ObjKey{Schema: acc.Name, Object: target},
								assertion.ObjKey{Schema: next.Name, Object: "Department"},
								assertion.Equals)
							return nil, set, nil, err
						},
					})
				}
				final, _, err := integrate.NAry(mk(0), steps, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(final.Objects) != 1 {
					b.Fatalf("final objects = %d", len(final.Objects))
				}
			}
		})
	}
}

// --- X5: resemblance-function ablation against the workload oracle ---

func BenchmarkResemblanceAblation(b *testing.B) {
	cfg := workload.DefaultConfig(99)
	cfg.Objects = 40
	cfg.NamingNoise = 0.4
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	truth := map[string]bool{}
	for _, tp := range w.TruePairs {
		truth[tp.A.Object+"|"+tp.B.Object] = true
	}
	k := len(w.TruePairs)

	variants := []struct {
		name string
		reg  func() *equivalence.Registry
	}{
		{"oracle-equivalences", func() *equivalence.Registry { return w.Registry }},
		{"suggested-name-only", func() *equivalence.Registry {
			reg := equivalence.NewRegistry()
			reg.RegisterSchema(w.S1)
			reg.RegisterSchema(w.S2)
			cands := resemblance.SuggestEquivalences(w.S1, w.S2,
				resemblance.Weights{Name: 1}, nil, 0.85)
			resemblance.ApplySuggestions(reg, cands)
			return reg
		}},
		{"suggested-weighted-dict", func() *equivalence.Registry {
			reg := equivalence.NewRegistry()
			reg.RegisterSchema(w.S1)
			reg.RegisterSchema(w.S2)
			cands := resemblance.SuggestEquivalences(w.S1, w.S2,
				resemblance.DefaultWeights(), dictionary.Builtin(), 0.85)
			resemblance.ApplySuggestions(reg, cands)
			return reg
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var precision float64
			for i := 0; i < b.N; i++ {
				reg := v.reg()
				pairs := resemblance.RankObjects(w.S1, w.S2, reg)
				hits := 0
				for j := 0; j < k && j < len(pairs); j++ {
					if truth[pairs[j].Object1+"|"+pairs[j].Object2] {
						hits++
					}
				}
				precision = float64(hits) / float64(k)
			}
			b.ReportMetric(precision, "precision@k")
		})
	}
}

// --- X6: schema translation sweep ---

func BenchmarkTranslationSweep(b *testing.B) {
	for _, n := range []int{5, 20, 50} {
		b.Run(fmt.Sprintf("tables=%d", n), func(b *testing.B) {
			db := syntheticDatabase(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := translate.FromRelational(db)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Schema.Objects) == 0 {
					b.Fatal("empty translation")
				}
			}
		})
	}
	b.Run("hierarchy=depth4", func(b *testing.B) {
		h := syntheticHierarchy(4, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := translate.FromHierarchical(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func syntheticDatabase(n int) *translate.Database {
	db := &translate.Database{Name: "bench"}
	for i := 0; i < n; i++ {
		t := &translate.Table{
			Name: fmt.Sprintf("T%02d", i),
			Columns: []translate.Column{
				{Name: "Id", Type: "INT", NotNull: true},
				{Name: "Name", Type: "VARCHAR(40)"},
			},
			PrimaryKey: []string{"Id"},
		}
		if i > 0 {
			t.Columns = append(t.Columns, translate.Column{Name: "Ref", Type: "INT", NotNull: true})
			t.ForeignKeys = []translate.ForeignKey{{
				Columns: []string{"Ref"}, RefTable: fmt.Sprintf("T%02d", i-1), RefColumns: []string{"Id"},
			}}
		}
		db.Tables = append(db.Tables, t)
	}
	return db
}

func syntheticHierarchy(depth, fanout int) *translate.Hierarchy {
	var build func(level, idx int) *translate.Segment
	n := 0
	build = func(level, idx int) *translate.Segment {
		n++
		seg := &translate.Segment{
			Name: fmt.Sprintf("S%d_%d_%d", level, idx, n),
			Fields: []translate.Field{
				{Name: "Key", Type: "char", Key: true},
				{Name: "Val", Type: "int"},
			},
		}
		if level < depth {
			for c := 0; c < fanout; c++ {
				seg.Children = append(seg.Children, build(level+1, c))
			}
		}
		return seg
	}
	return &translate.Hierarchy{Name: "bench", Roots: []*translate.Segment{build(1, 0)}}
}

// --- X7: query translation through the generated mappings ---

func BenchmarkQueryMappingSweep(b *testing.B) {
	ws := paperIntegration(b)
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		b.Fatal(err)
	}
	view := mapping.Query{
		Schema: "sc2", Object: "Grad_student",
		Project: []string{"Name", "Support_type"},
		Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.5"}},
	}
	global := mapping.Query{
		Schema: res.Schema.Name, Object: "Student",
		Project: []string{"D_Name"},
	}
	b.Run("view-to-integrated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mapping.ViewToIntegrated(view, res.Mappings); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("integrated-to-components", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subs, _, err := mapping.IntegratedToComponents(global, res.Mappings, res.Schema)
			if err != nil {
				b.Fatal(err)
			}
			if len(subs) < 2 {
				b.Fatal("fan-out wrong")
			}
		}
	})
}

// --- sanity: the batch path regenerates Figure 5 too ---

func BenchmarkBatchPaperSpec(b *testing.B) {
	spec, err := batch.ParseSpec(`
schemas sc1 sc2
equiv Student.Name = Grad_student.Name
equiv Student.Name = Faculty.Name
equiv Student.GPA = Grad_student.GPA
equiv Department.Dname = Department.Dname
equiv Majors.Since = Stud_major.Since
assert Department 1 Department
assert Student 3 Grad_student
assert Student 4 Faculty
rel-assert Majors 1 Stud_major
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := batch.Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Schema.Object("D_Stud_Facu") == nil {
			b.Fatal("figure 5 shape missing")
		}
	}
}

// --- X8: operational mappings — federated instance queries ---

func BenchmarkFederationQuerySweep(b *testing.B) {
	ws := paperIntegration(b)
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		b.Fatal(err)
	}
	s1, s2 := ws.Schema("sc1"), ws.Schema("sc2")
	for _, rows := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			st1, err := instance.NewStore(s1)
			if err != nil {
				b.Fatal(err)
			}
			st2, err := instance.NewStore(s2)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := st1.Insert("Student", instance.Row{
					"Name": fmt.Sprintf("s1-%06d", i),
					"GPA":  fmt.Sprintf("%.2f", float64(i%40)/10),
				}); err != nil {
					b.Fatal(err)
				}
				if err := st2.Insert("Grad_student", instance.Row{
					"Name":         fmt.Sprintf("s2-%06d", i),
					"GPA":          fmt.Sprintf("%.2f", float64(i%40)/10),
					"Support_type": "RA",
				}); err != nil {
					b.Fatal(err)
				}
			}
			fed, err := instance.NewFederation(res.Schema, res.Mappings,
				map[string]*instance.Store{"sc1": st1, "sc2": st2})
			if err != nil {
				b.Fatal(err)
			}
			q := mapping.Query{
				Schema:  res.Schema.Name,
				Object:  "Student",
				Project: []string{"D_Name"},
				Where:   []mapping.Predicate{{Attr: "D_GPA", Op: ">", Value: "3.5"}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := fed.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// --- X9: attribute-matching ablation — binary domain match vs the full
// Larson et al. theory ---

func BenchmarkAttributeTheoryAblation(b *testing.B) {
	s1, s2 := paperex.Sc1(), paperex.Sc2()
	b.Run("binary-domain-match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands := resemblance.SuggestEquivalences(s1, s2,
				resemblance.DefaultWeights(), dictionary.Builtin(), 0.8)
			if len(cands) == 0 {
				b.Fatal("no candidates")
			}
		}
	})
	b.Run("full-theory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands := resemblance.SuggestEquivalencesTheory(s1, s2,
				resemblance.DefaultWeights(), dictionary.Builtin(), 0.8)
			if len(cands) == 0 {
				b.Fatal("no candidates")
			}
		}
	})
}

// --- X10: n-ary planning by schema resemblance ---

func BenchmarkPlanOrderSweep(b *testing.B) {
	for _, k := range []int{3, 6, 12} {
		b.Run(fmt.Sprintf("schemas=%d", k), func(b *testing.B) {
			var schemas []*ecr.Schema
			for i := 0; i < k; i++ {
				w := genWorkload(b, 8+i)
				s := w.S1.Clone()
				s.Name = fmt.Sprintf("p%02d", i)
				schemas = append(schemas, s)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := plan.Order(schemas, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(p.Steps) != k-1 {
					b.Fatal("plan incomplete")
				}
			}
		})
	}
}
