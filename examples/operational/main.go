// Operational: the generated mappings driving a running system.
//
// The paper notes that after integration the mappings "are used to
// translate requests in an operational system". This example makes that
// concrete with the in-memory instance level: the paper's sc1 and sc2 are
// populated with rows, the integrated schema of Figure 5 is built, and then
//
//   - a global query against the integrated Student class is answered by
//     federating sc1.Student and sc2.Grad_student, merging the person known
//     to both databases (the global schema design context), and
//   - a view query phrased against sc2 executes against an integrated
//     store through the mappings (the logical database design context).
//
// Run with: go run ./examples/operational
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/paperex"
	"repro/internal/session"
)

func main() {
	s1, s2 := paperex.Sc1(), paperex.Sc2()
	ws := session.NewWorkspace()
	check(ws.AddSchema(s1))
	check(ws.AddSchema(s2))
	for _, p := range [][2]string{
		{"Student.Name", "Grad_student.Name"},
		{"Student.Name", "Faculty.Name"},
		{"Student.GPA", "Grad_student.GPA"},
		{"Department.Dname", "Department.Dname"},
		{"Majors.Since", "Stud_major.Since"},
	} {
		a, err := core.ResolveAttr(s1, p[0])
		check(err)
		b, err := core.ResolveAttr(s2, p[1])
		check(err)
		check(ws.Registry().Declare(a, b))
	}
	key1 := func(o string) assertion.ObjKey { return assertion.ObjKey{Schema: "sc1", Object: o} }
	key2 := func(o string) assertion.ObjKey { return assertion.ObjKey{Schema: "sc2", Object: o} }
	objs := ws.ObjectAssertions("sc1", "sc2")
	check(objs.Assert(key1("Department"), key2("Department"), assertion.Equals))
	check(objs.Assert(key1("Student"), key2("Grad_student"), assertion.Contains))
	check(objs.Assert(key1("Student"), key2("Faculty"), assertion.DisjointIntegrable))
	check(ws.RelationshipAssertions("sc1", "sc2").Assert(key1("Majors"), key2("Stud_major"), assertion.Equals))
	res, err := ws.Integrate("sc1", "sc2", "")
	check(err)

	// Populate the two component databases.
	st1, err := instance.NewStore(s1)
	check(err)
	st2, err := instance.NewStore(s2)
	check(err)
	check(st1.Insert("Student", instance.Row{"Name": "ann", "GPA": "3.9"}))
	check(st1.Insert("Student", instance.Row{"Name": "bob", "GPA": "2.1"}))
	check(st2.Insert("Grad_student", instance.Row{"Name": "ann", "GPA": "3.9", "Support_type": "TA"}))
	check(st2.Insert("Grad_student", instance.Row{"Name": "carol", "GPA": "3.7", "Support_type": "RA"}))
	check(st2.Insert("Faculty", instance.Row{"Name": "dan", "Rank": "full"}))

	// Global schema design: one query, two databases, merged answer.
	fed, err := instance.NewFederation(res.Schema, res.Mappings,
		map[string]*instance.Store{"sc1": st1, "sc2": st2})
	check(err)
	rows, skipped, err := fed.Query(mapping.Query{
		Schema:  res.Schema.Name,
		Object:  "Student",
		Project: []string{"D_Name", "D_GPA"},
	})
	check(err)
	instance.SortRows(rows, "D_Name")
	fmt.Println("--- global query: all students across both databases ---")
	fmt.Println("select D_Name, D_GPA from", res.Schema.Name+".Student")
	for _, r := range rows {
		fmt.Printf("  %-6s %s\n", r["D_Name"], r["D_GPA"])
	}
	for _, s := range skipped {
		fmt.Println("  skipped:", s)
	}
	fmt.Println("  (ann appears once although both databases know her)")
	fmt.Println()

	// Logical database design: a materialized integrated store serving
	// the old view's transactions.
	intStore, err := instance.NewStore(res.Schema)
	check(err)
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r["D_Name"]] {
			seen[r["D_Name"]] = true
			check(intStore.Insert("Student", instance.Row{"D_Name": r["D_Name"], "D_GPA": r["D_GPA"]}))
		}
	}
	ve, err := instance.NewViewExecutor(intStore, res.Mappings)
	check(err)
	viewQ := mapping.Query{
		Schema:  "sc1",
		Object:  "Student",
		Project: []string{"Name"},
		Where:   []mapping.Predicate{{Attr: "GPA", Op: ">", Value: "3.0"}},
	}
	viewRows, err := ve.Query(viewQ)
	check(err)
	var names []string
	for _, r := range viewRows {
		names = append(names, r["Name"])
	}
	sort.Strings(names)
	fmt.Println("--- view transaction against the logical schema ---")
	fmt.Println(viewQ.String())
	fmt.Println("  ->", names)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
