// Viewdesign: logical database design from user views.
//
// This example exercises the paper's first integration context: several
// user views are merged into one logical schema, and the transactions
// specified against each view are mapped to the logical schema. Here a
// registrar's view and a housing office's view of a campus database are
// integrated; the registrar's and housing queries are then rewritten
// against the logical schema through the generated mappings.
//
// Run with: go run ./examples/viewdesign
package main

import (
	"fmt"
	"log"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/mapping"
	"repro/internal/session"
)

const registrarView = `
schema registrar
entity Student {
    attr Sid: int key
    attr Name: char
    attr GPA: real
}
entity Course {
    attr Cno: char key
    attr Title: char
}
relationship Takes (Student (0,n), Course (0,n)) {
    attr Grade: char
}
`

const housingView = `
schema housing
entity Resident {
    attr Sid: int key
    attr Name: char
    attr Meal_plan: char
}
entity Dorm {
    attr Dname: char key
    attr Capacity: int
}
relationship Lives_in (Resident (1,1), Dorm (0,n)) {}
`

func main() {
	reg, err := ecr.ParseSchema(registrarView)
	check(err)
	hou, err := ecr.ParseSchema(housingView)
	check(err)

	ws := session.NewWorkspace()
	check(ws.AddSchema(reg))
	check(ws.AddSchema(hou))
	// Schema analysis: student ids and names correspond.
	for _, attr := range []string{"Sid", "Name"} {
		a, err := core.ResolveAttr(reg, "Student."+attr)
		check(err)
		b, err := core.ResolveAttr(hou, "Resident."+attr)
		check(err)
		check(ws.Registry().Declare(a, b))
	}
	// Every resident is a student, but not every student lives on
	// campus: Resident is contained in Student.
	check(ws.ObjectAssertions(reg.Name, hou.Name).Assert(
		assertion.ObjKey{Schema: reg.Name, Object: "Student"},
		assertion.ObjKey{Schema: hou.Name, Object: "Resident"},
		assertion.Contains))

	res, err := ws.Integrate(reg.Name, hou.Name, "campus")
	check(err)

	fmt.Println("--- logical schema from the two views ---")
	fmt.Print(ecr.Diagram(res.Schema))
	fmt.Println()
	fmt.Println("--- integration report ---")
	for _, line := range res.Report {
		fmt.Println("  ", line)
	}
	fmt.Println()

	// Both offices keep their own transactions; the mappings rewrite
	// them against the logical schema.
	queries := []mapping.Query{
		{
			Schema: "registrar", Object: "Student",
			Project: []string{"Name", "GPA"},
			Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.5"}},
		},
		{
			Schema: "housing", Object: "Resident",
			Project: []string{"Name", "Meal_plan"},
		},
		{
			Schema: "registrar", Object: "Takes",
			Project: []string{"Grade"},
		},
	}
	fmt.Println("--- view transactions rewritten against the logical schema ---")
	for _, q := range queries {
		up, err := mapping.ViewToIntegrated(q, res.Mappings)
		check(err)
		fmt.Println("view:   ", q.String())
		fmt.Println("logical:", up.String())
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
