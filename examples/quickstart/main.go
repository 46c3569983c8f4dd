// Quickstart: integrate two small ECR schemas.
//
// Two departmental views of the same mini-world are parsed from the ECR
// DDL, one attribute equivalence and one assertion are declared, and the
// integrated schema plus the generated mappings are printed.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/session"
)

const view1 = `
schema payroll
entity Employee {
    attr Name: char key
    attr Salary: int
}
`

const view2 = `
schema directory
entity Person {
    attr Name: char key
    attr Phone: char
}
`

func main() {
	s1, err := ecr.ParseSchema(view1)
	if err != nil {
		log.Fatal(err)
	}
	s2, err := ecr.ParseSchema(view2)
	if err != nil {
		log.Fatal(err)
	}

	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{s1, s2} {
		if err := ws.AddSchema(s); err != nil {
			log.Fatal(err)
		}
	}
	// Schema analysis: Employee.Name and Person.Name mean the same thing.
	a, err := core.ResolveAttr(s1, "Employee.Name")
	if err != nil {
		log.Fatal(err)
	}
	b, err := core.ResolveAttr(s2, "Person.Name")
	if err != nil {
		log.Fatal(err)
	}
	if err := ws.Registry().Declare(a, b); err != nil {
		log.Fatal(err)
	}
	// Assertion: every employee is a person (Employee contained in
	// Person), so Employee becomes a category of Person.
	if err := ws.ObjectAssertions("payroll", "directory").Assert(
		assertion.ObjKey{Schema: "payroll", Object: "Employee"},
		assertion.ObjKey{Schema: "directory", Object: "Person"},
		assertion.ContainedIn); err != nil {
		log.Fatal(err)
	}

	res, err := ws.Integrate("payroll", "directory", "company")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- integrated schema (ECR DDL) ---")
	fmt.Print(ecr.FormatSchema(res.Schema))
	fmt.Println()
	fmt.Println("--- diagram ---")
	fmt.Print(ecr.Diagram(res.Schema))
	fmt.Println()
	fmt.Println("--- mappings ---")
	fmt.Print(res.Mappings.String())
}
