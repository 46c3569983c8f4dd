// System test: the whole pipeline of the paper and its future-work vision,
// end to end — translate conventional schemas into ECR, plan the n-ary
// integration order by schema resemblance, integrate pairwise with
// dictionary-suggested equivalences, and run requests through the generated
// mappings against live instances.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/plan"
	"repro/internal/translate"
)

const sysPersonnelSQL = `
CREATE TABLE Department (
    Dname VARCHAR(40) PRIMARY KEY,
    Budget INT
);
CREATE TABLE Employee (
    Eno INT PRIMARY KEY,
    Name VARCHAR(40) NOT NULL,
    Salary INT,
    Dept VARCHAR(40) NOT NULL,
    FOREIGN KEY (Dept) REFERENCES Department (Dname)
);
`

const sysProjectsHier = `
hierarchy projects
segment Division {
    field Dname char key
    field Location char
    segment Project {
        field Pname char key
        field Budget int
    }
}
`

const sysSalesECR = `
schema sales
entity Customer {
    attr Name: char key
    attr Region: char
}
`

func TestFullPipeline(t *testing.T) {
	// Phase 0 (substrate): translate the conventional schemas.
	db, err := translate.ParseSQL("personnel", sysPersonnelSQL)
	if err != nil {
		t.Fatal(err)
	}
	relRes, err := translate.FromRelational(db)
	if err != nil {
		t.Fatal(err)
	}
	h, err := translate.ParseHierarchy(sysProjectsHier)
	if err != nil {
		t.Fatal(err)
	}
	hierRes, err := translate.FromHierarchical(h)
	if err != nil {
		t.Fatal(err)
	}
	sales, err := ecr.ParseSchema(sysSalesECR)
	if err != nil {
		t.Fatal(err)
	}
	schemas := []*ecr.Schema{relRes.Schema, hierRes.Schema, sales}

	// Plan the order: personnel and projects share the department/
	// division concept and should pair before sales joins.
	p, err := plan.Order(schemas, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("plan = %+v", p.Steps)
	}
	firstPair := p.Steps[0].Left + "+" + p.Steps[0].Right
	if !strings.Contains(firstPair, "personnel") || !strings.Contains(firstPair, "projects") {
		t.Errorf("plan ordered %q first; want personnel+projects", firstPair)
	}

	// Step 1: integrate personnel + projects.
	ws1 := pairWorkspace(t, relRes.Schema, hierRes.Schema)
	declareEquivalent(t, ws1, "personnel", "projects", "Department.Dname", "Division.Dname")
	assertClosed(t, ws1.ObjectAssertions("personnel", "projects"),
		"personnel", "Department", assertion.Equals, "projects", "Division")
	step1, err := ws1.Integrate("personnel", "projects", "g1")
	if err != nil {
		t.Fatal(err)
	}

	// Step 2: fold in sales.
	ws2 := pairWorkspace(t, step1.Schema, sales)
	assertClosed(t, ws2.ObjectAssertions("g1", "sales"),
		"g1", "Employee", assertion.DisjointIntegrable, "sales", "Customer")
	global, err := ws2.Integrate("g1", "sales", "global")
	if err != nil {
		t.Fatal(err)
	}
	if err := global.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	// The merged department concept and the derived partner concept.
	if global.Schema.Object("E_Depa_Divi") == nil {
		t.Errorf("merged department missing: %v", objectNames(global.Schema))
	}
	if global.Schema.Object("D_Empl_Cust") == nil {
		t.Errorf("derived employee/customer concept missing: %v", objectNames(global.Schema))
	}

	// Operational check: instances in the two original databases answer
	// a step-1 global query.
	st1, err := instance.NewStore(relRes.Schema)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := instance.NewStore(hierRes.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Insert("Department", instance.Row{"Dname": "CS", "Budget": "100"}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Insert("Division", instance.Row{"Dname": "CS", "Location": "hall-1"}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Insert("Division", instance.Row{"Dname": "EE", "Location": "hall-2"}); err != nil {
		t.Fatal(err)
	}
	fed, err := instance.NewFederation(step1.Schema, step1.Mappings,
		map[string]*instance.Store{"personnel": st1, "projects": st2})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := fed.Query(mapping.Query{
		Schema:  "g1",
		Object:  "E_Depa_Divi",
		Project: []string{"D_Dname"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // CS merged across the two databases, plus EE
		t.Errorf("federated rows = %v", rows)
	}
}

func objectNames(s *ecr.Schema) []string {
	var out []string
	for _, o := range s.Objects {
		out = append(out, o.Name)
	}
	return out
}
