// University: the complete running example of the paper, end to end.
//
// Schemas sc1 (Figure 3) and sc2 (Figure 4) are integrated with the
// equivalences of Screen 7 and the assertions of Screen 8, reproducing the
// integrated schema of Figure 5 — E_Department, D_Stud_Facu with Student
// and Faculty as categories, Grad_student under Student, E_Stud_Majo and
// Works — and the component-attribute provenance shown in Screens 12a/12b.
//
// Run with: go run ./examples/university
package main

import (
	"fmt"
	"log"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/mapping"
	"repro/internal/paperex"
	"repro/internal/session"
)

func main() {
	s1, s2 := paperex.Sc1(), paperex.Sc2()
	fmt.Println("--- component schema sc1 (Figure 3) ---")
	fmt.Print(ecr.Diagram(s1))
	fmt.Println()
	fmt.Println("--- component schema sc2 (Figure 4) ---")
	fmt.Print(ecr.Diagram(s2))
	fmt.Println()

	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := ws.AddSchema(s); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 2 — schema analysis: the equivalence classes of Screen 7.
	for _, pair := range [][2]string{
		{"Student.Name", "Grad_student.Name"},
		{"Student.Name", "Faculty.Name"},
		{"Student.GPA", "Grad_student.GPA"},
		{"Department.Dname", "Department.Dname"},
		{"Majors.Since", "Stud_major.Since"},
	} {
		a, err := core.ResolveAttr(s1, pair[0])
		if err != nil {
			log.Fatal(err)
		}
		b, err := core.ResolveAttr(s2, pair[1])
		if err != nil {
			log.Fatal(err)
		}
		if err := ws.Registry().Declare(a, b); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 3 — assertion specification: the ranked pairs of Screen 8.
	fmt.Println("--- ranked object pairs (Screen 8) ---")
	for _, p := range ws.RankObjects(s1, s2) {
		if p.Equivalent == 0 {
			continue
		}
		fmt.Printf("%-18s %-22s ratio %.4f\n",
			p.Schema1+"."+p.Object1, p.Schema2+"."+p.Object2, p.Ratio)
	}
	fmt.Println()

	asserts := []struct {
		o1   string
		kind assertion.Kind
		o2   string
		eng  *assertion.Engine
	}{
		{"Department", assertion.Equals, "Department", ws.ObjectAssertions("sc1", "sc2")},
		{"Student", assertion.Contains, "Grad_student", ws.ObjectAssertions("sc1", "sc2")},
		{"Student", assertion.DisjointIntegrable, "Faculty", ws.ObjectAssertions("sc1", "sc2")},
		{"Majors", assertion.Equals, "Stud_major", ws.RelationshipAssertions("sc1", "sc2")},
	}
	for _, a := range asserts {
		if err := a.eng.Assert(
			assertion.ObjKey{Schema: "sc1", Object: a.o1},
			assertion.ObjKey{Schema: "sc2", Object: a.o2}, a.kind); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 4 — integration: Figure 5.
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- integrated schema (Figure 5) ---")
	fmt.Print(ecr.Diagram(res.Schema))
	fmt.Println()

	// The component attributes behind the derived D_Name (Screens
	// 12a/12b).
	student := res.Schema.Object("Student")
	dname, _ := student.Attribute("D_Name")
	fmt.Println("--- component attributes of Student.D_Name (Screens 12a/12b) ---")
	for _, c := range dname.Components {
		fmt.Printf("%s (original type %s)\n", c, c.Kind)
	}
	fmt.Println()

	// Mappings in the logical-database-design direction: a view query
	// against sc2 rewritten against the integrated schema.
	q := mapping.Query{
		Schema:  "sc2",
		Object:  "Grad_student",
		Project: []string{"Name", "Support_type"},
		Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.5"}},
	}
	up, err := mapping.ViewToIntegrated(q, res.Mappings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- view query translation ---")
	fmt.Println("view:      ", q.String())
	fmt.Println("integrated:", up.String())
}
