package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/instance"
	"repro/internal/journal"
)

// saveTestIntegration persists the paper integration under a name over HTTP.
func saveTestIntegration(t testing.TB, client *http.Client, base, name string) IntegrationInfo {
	t.Helper()
	var info IntegrationInfo
	req := integrationsRequest{Name: name, Schema1: "sc1", Schema2: "sc2"}
	if status := doJSON(t, client, "POST", base+"/v1/integrations", req, &info); status != http.StatusCreated {
		t.Fatalf("save integration: status %d", status)
	}
	return info
}

// loadTestRows inserts rows over HTTP.
func loadTestRows(t testing.TB, client *http.Client, base, schema, structure string, rows []instance.Row) {
	t.Helper()
	req := rowsRequest{Schema: schema, Structure: structure, Rows: rows}
	if status := doJSON(t, client, "POST", base+"/v1/rows", req, nil); status != http.StatusCreated {
		t.Fatalf("load rows into %s.%s: status %d", schema, structure, status)
	}
}

func paperStudentRows(t testing.TB, client *http.Client, base string) {
	t.Helper()
	loadTestRows(t, client, base, "sc1", "Student", []instance.Row{
		{"Name": "Amy", "GPA": "3.9"},
		{"Name": "Bob", "GPA": "2.9"},
	})
	loadTestRows(t, client, base, "sc2", "Grad_student", []instance.Row{
		{"Name": "Amy", "GPA": "3.9", "Support_type": "RA"},
		{"Name": "Carol", "GPA": "3.7", "Support_type": "TA"},
	})
}

func TestFederatedQueryEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	client := ts.Client()
	populatePaperWorkspace(t, client, ts.URL)

	info := saveTestIntegration(t, client, ts.URL, "paper")
	if info.Schema != "INT_sc1_sc2" || len(info.Components) != 2 {
		t.Fatalf("integration info = %+v", info)
	}

	var list struct {
		Integrations []IntegrationInfo `json:"integrations"`
	}
	if status := doJSON(t, client, "GET", ts.URL+"/v1/integrations", nil, &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if len(list.Integrations) != 1 || list.Integrations[0].Name != "paper" {
		t.Fatalf("integrations = %+v", list.Integrations)
	}

	var got struct {
		Name     string `json:"name"`
		DDL      string `json:"ddl"`
		Mappings any    `json:"mappings"`
	}
	if status := doJSON(t, client, "GET", ts.URL+"/v1/integrations/paper", nil, &got); status != http.StatusOK {
		t.Fatalf("get status %d", status)
	}
	if got.Name != "paper" || got.DDL == "" || got.Mappings == nil {
		t.Fatalf("integration get = %+v", got)
	}
	if status := doJSON(t, client, "GET", ts.URL+"/v1/integrations/nope", nil, nil); status != http.StatusNotFound {
		t.Fatalf("missing integration status %d", status)
	}

	paperStudentRows(t, client, ts.URL)

	// Global schema design context: an integrated query fans out to the
	// components and executes; Amy is known to both databases and merges.
	var resp queryResponse
	q := queryRequest{Integration: "paper", Query: queryJSON{
		Schema: "INT_sc1_sc2", Object: "Student", Project: []string{"D_Name"},
	}}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/query", q, &resp); status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}
	if resp.Direction != DirIntegratedToComponents || !resp.Executed {
		t.Fatalf("response = %+v", resp)
	}
	if len(resp.Queries) == 0 || len(resp.Rendered) != len(resp.Queries) {
		t.Fatalf("queries = %v rendered = %v", resp.Queries, resp.Rendered)
	}
	names := map[string]bool{}
	for _, row := range resp.Rows {
		names[row["D_Name"]] = true
	}
	if len(resp.Rows) != 3 || !names["Amy"] || !names["Bob"] || !names["Carol"] {
		t.Fatalf("rows = %v", resp.Rows)
	}

	// Logical database design context: a view query lifts to the integrated
	// schema. No integrated rows are loaded yet, so only the translation
	// comes back.
	view := queryRequest{Integration: "paper", Query: queryJSON{
		Schema: "sc1", Object: "Student", Project: []string{"Name"},
		Where: []predicateJSON{{Attr: "GPA", Op: ">", Value: "3.5"}},
	}}
	resp = queryResponse{}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/query", view, &resp); status != http.StatusOK {
		t.Fatalf("view query status %d", status)
	}
	if resp.Direction != DirViewToIntegrated || resp.Executed || len(resp.Notes) == 0 {
		t.Fatalf("view response = %+v", resp)
	}
	if len(resp.Queries) != 1 || resp.Queries[0].Schema != "INT_sc1_sc2" {
		t.Fatalf("view rewrite = %+v", resp.Queries)
	}

	// With integrated rows loaded the view query executes, columns renamed
	// back to the view's names.
	loadTestRows(t, client, ts.URL, "INT_sc1_sc2", "Student", []instance.Row{
		{"D_Name": "Zed", "D_GPA": "3.8"},
		{"D_Name": "Yan", "D_GPA": "2.1"},
	})
	resp = queryResponse{}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/query", view, &resp); status != http.StatusOK {
		t.Fatalf("view query status %d", status)
	}
	if !resp.Executed || len(resp.Rows) != 1 || resp.Rows[0]["Name"] != "Zed" {
		t.Fatalf("executed view response = %+v", resp)
	}

	// Error paths: unknown integration 404, bad direction 400.
	bad := queryRequest{Integration: "nope", Query: queryJSON{Schema: "sc1", Object: "Student"}}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/query", bad, nil); status != http.StatusNotFound {
		t.Fatalf("unknown integration status %d", status)
	}
	bad = queryRequest{Integration: "paper", Direction: "sideways",
		Query: queryJSON{Schema: "sc1", Object: "Student"}}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/query", bad, nil); status != http.StatusBadRequest {
		t.Fatalf("bad direction status %d", status)
	}
}

func TestRowsPostValidation(t *testing.T) {
	_, ts := testServer(t)
	client := ts.Client()
	populatePaperWorkspace(t, client, ts.URL)

	// Unknown schema.
	req := rowsRequest{Schema: "zz", Structure: "X", Rows: []instance.Row{{"A": "1"}}}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/rows", req, nil); status != http.StatusNotFound {
		t.Fatalf("unknown schema status %d", status)
	}
	// Unknown attribute.
	req = rowsRequest{Schema: "sc1", Structure: "Student", Rows: []instance.Row{{"Nope": "1"}}}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/rows", req, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown attribute status %d", status)
	}
	// Duplicate key within the batch: nothing may land.
	req = rowsRequest{Schema: "sc1", Structure: "Student", Rows: []instance.Row{
		{"Name": "Amy"}, {"Name": "Amy"},
	}}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/rows", req, nil); status != http.StatusBadRequest {
		t.Fatalf("duplicate key status %d", status)
	}
	req = rowsRequest{Schema: "sc1", Structure: "Student", Rows: []instance.Row{{"Name": "Amy"}}}
	var out struct {
		Total int `json:"total"`
	}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/rows", req, &out); status != http.StatusCreated {
		t.Fatalf("insert status %d", status)
	}
	if out.Total != 1 {
		t.Fatalf("total after failed batch = %d", out.Total)
	}
}

// TestFederationCrashRecovery is the acceptance test for mapping-table
// durability: saved integrations and loaded rows must survive a SIGKILL-style
// crash (no drain, no sync, no final snapshot) via journal replay, and the
// query route must keep answering from the rebuilt state.
func TestFederationCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	srv, _ := openDurable(t, dir, journal.Hooks{})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	populatePaperWorkspace(t, client, ts.URL)
	saveTestIntegration(t, client, ts.URL, "paper")
	paperStudentRows(t, client, ts.URL)

	// Crash: the data directory is all that survives.
	ts.Close()
	srv.Kill()

	srv2, report := openDurable(t, dir, journal.Hooks{})
	if report.RecoveredWorkspaces != 1 || report.ReplayedRecords == 0 {
		t.Fatalf("recovery report = %+v", report)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()

	var list struct {
		Integrations []IntegrationInfo `json:"integrations"`
	}
	if status := doJSON(t, client2, "GET", ts2.URL+"/v1/integrations", nil, &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if len(list.Integrations) != 1 || list.Integrations[0].Name != "paper" {
		t.Fatalf("integrations after crash = %+v", list.Integrations)
	}

	var resp queryResponse
	q := queryRequest{Integration: "paper", Query: queryJSON{
		Schema: "INT_sc1_sc2", Object: "Student", Project: []string{"D_Name"},
	}}
	if status := doJSON(t, client2, "POST", ts2.URL+"/v1/query", q, &resp); status != http.StatusOK {
		t.Fatalf("query after crash status %d", status)
	}
	if !resp.Executed || len(resp.Rows) != 3 {
		t.Fatalf("query after crash = %+v", resp)
	}

	// The rebuilt instance stores still enforce keys: re-inserting a
	// replayed key must fail, proving the rows really were replayed into
	// live stores and not just listed.
	req := rowsRequest{Schema: "sc1", Structure: "Student", Rows: []instance.Row{{"Name": "Amy"}}}
	if status := doJSON(t, client2, "POST", ts2.URL+"/v1/rows", req, nil); status != http.StatusBadRequest {
		t.Fatalf("duplicate key after crash status %d", status)
	}

	// A compaction folds the federation state into the snapshot; a second
	// crash then recovers from the snapshot path instead of pure replay.
	if err := srv2.Compact(); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	srv2.Kill()

	srv3, report3 := openDurable(t, dir, journal.Hooks{})
	if report3.RecoveredWorkspaces != 1 {
		t.Fatalf("second recovery report = %+v", report3)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	client3 := ts3.Client()
	resp = queryResponse{}
	if status := doJSON(t, client3, "POST", ts3.URL+"/v1/query", q, &resp); status != http.StatusOK {
		t.Fatalf("query after snapshot recovery status %d", status)
	}
	if !resp.Executed || len(resp.Rows) != 3 {
		t.Fatalf("query after snapshot recovery = %+v", resp)
	}
}

// TestIntegrationResaveKeepsRows pins which saves drop the rows loaded
// into an integrated schema. A save that resolves the schema name to an
// identical schema — a retried save under the same name, or another name
// sorting earlier that produces the same schema — keeps them, live and
// after recovery from the journal and from a snapshot. A save that changes
// the schema drops them.
func TestIntegrationResaveKeepsRows(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openDurable(t, dir, journal.Hooks{})
	ts := httptest.NewServer(srv.Handler())
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	saveTestIntegration(t, ts.Client(), ts.URL, "paper")
	loadTestRows(t, ts.Client(), ts.URL, "INT_sc1_sc2", "Student", []instance.Row{
		{"D_Name": "Zed", "D_GPA": "3.8"},
		{"D_Name": "Yan", "D_GPA": "2.1"},
	})

	view := queryRequest{Integration: "paper", Query: queryJSON{
		Schema: "sc1", Object: "Student", Project: []string{"Name"},
		Where: []predicateJSON{{Attr: "GPA", Op: ">", Value: "3.5"}},
	}}
	// viewRows runs the view query and reports whether it executed over
	// integrated rows, failing unless the one such row is Zed.
	viewRows := func(stage, base string, client *http.Client) bool {
		t.Helper()
		var resp queryResponse
		if status := doJSON(t, client, "POST", base+"/v1/query", view, &resp); status != http.StatusOK {
			t.Fatalf("%s: view query status %d", stage, status)
		}
		if resp.Executed && (len(resp.Rows) != 1 || resp.Rows[0]["Name"] != "Zed") {
			t.Fatalf("%s: view rows = %v", stage, resp.Rows)
		}
		return resp.Executed
	}

	saveTestIntegration(t, ts.Client(), ts.URL, "paper")
	if !viewRows("identical re-save", ts.URL, ts.Client()) {
		t.Fatal("identical re-save dropped the integrated rows")
	}
	saveTestIntegration(t, ts.Client(), ts.URL, "another")
	if !viewRows("identical save under an earlier name", ts.URL, ts.Client()) {
		t.Fatal("identical save under an earlier name dropped the integrated rows")
	}

	// Both recovery legs: journal replay, then a snapshot.
	ts.Close()
	srv.Kill()
	srv, _ = openDurable(t, dir, journal.Hooks{})
	ts = httptest.NewServer(srv.Handler())
	if !viewRows("after replay", ts.URL, ts.Client()) {
		t.Fatal("integrated rows lost on journal replay")
	}
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Kill()
	srv, _ = openDurable(t, dir, journal.Hooks{})
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	if !viewRows("after snapshot recovery", ts.URL, ts.Client()) {
		t.Fatal("integrated rows lost on snapshot recovery")
	}

	// Retracting the relationship assertion changes the integrated schema;
	// saving it under the name that resolves first drops the rows.
	retract := retractRequest{Schema1: "sc1", Object1: "Majors", Schema2: "sc2", Object2: "Stud_major", Relationship: true}
	if status := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/assertions", retract, nil); status != http.StatusOK {
		t.Fatalf("retract status %d", status)
	}
	saveTestIntegration(t, ts.Client(), ts.URL, "another")
	if viewRows("changed schema", ts.URL, ts.Client()) {
		t.Fatal("a save that changed the integrated schema kept its rows")
	}
}

func TestSchemasPostFormats(t *testing.T) {
	_, ts := testServer(t)
	client := ts.Client()

	// Explicit SQL source through the JSON envelope.
	var out struct {
		Added  []string `json:"added"`
		Format string   `json:"format"`
		Notes  []string `json:"notes"`
	}
	req := schemasRequest{
		Source: "CREATE TABLE T (Id INT PRIMARY KEY, Label VARCHAR(10));",
		Format: "sql", Name: "reldb",
	}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas", req, &out); status != http.StatusCreated {
		t.Fatalf("sql upload status %d", status)
	}
	if out.Format != "sql" || len(out.Added) != 1 || out.Added[0] != "reldb" {
		t.Fatalf("sql upload = %+v", out)
	}

	// Sniffed hierarchical source.
	out = struct {
		Added  []string `json:"added"`
		Format string   `json:"format"`
		Notes  []string `json:"notes"`
	}{}
	req = schemasRequest{Source: "hierarchy h\nsegment Root {\n field K char key\n}\n"}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas", req, &out); status != http.StatusCreated {
		t.Fatalf("hierarchical upload status %d", status)
	}
	if out.Format != "hierarchical" || len(out.Added) != 1 {
		t.Fatalf("hierarchical upload = %+v", out)
	}

	// Sniffed Avro via the JSON envelope's source field.
	avro := `{"type":"record","name":"Point","fields":[{"name":"id","type":"int"},{"name":"x","type":"double"}]}`
	out.Format = ""
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas", schemasRequest{Source: avro}, &out); status != http.StatusCreated {
		t.Fatalf("avro upload status %d", status)
	}
	if out.Format != "avro" {
		t.Fatalf("avro sniffed as %q", out.Format)
	}

	// Unknown explicit format is a 400.
	req = schemasRequest{Source: "whatever", Format: "cobol"}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas", req, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown format status %d", status)
	}

	// More than one body form is a 400.
	req = schemasRequest{DDL: "schema s\n", Source: "CREATE TABLE T (Id INT PRIMARY KEY);"}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas", req, nil); status != http.StatusBadRequest {
		t.Fatalf("two bodies status %d", status)
	}
}

func TestSchemasPostRawFormatParam(t *testing.T) {
	_, ts := testServer(t)
	client := ts.Client()

	// A raw text body with ?format=jsonschema&name=... goes through the
	// registry like the JSON envelope does.
	body := `{"$schema":"https://json-schema.org/draft/2020-12/schema","title":"Shop",
	  "type":"object","properties":{"name":{"type":"string","x-key":true}}}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/schemas?format=jsonschema", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	res, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("raw jsonschema upload status %d", res.StatusCode)
	}
}

// TestComponentSchemaShadowingIntegratedDropsRows: rows loaded into a saved
// integration's schema are dropped when a component schema of the same
// name is uploaded, since the name now resolves to the component schema
// and a snapshot restore could not replay them against it. Every read must
// agree live, after journal replay and after snapshot recovery.
func TestComponentSchemaShadowingIntegratedDropsRows(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openDurable(t, dir, journal.Hooks{})
	ts := httptest.NewServer(srv.Handler())
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	saveTestIntegration(t, ts.Client(), ts.URL, "paper")
	loadTestRows(t, ts.Client(), ts.URL, "INT_sc1_sc2", "Student", []instance.Row{
		{"D_Name": "Zed", "D_GPA": "3.8"},
	})
	shadow := map[string]string{"ddl": "schema INT_sc1_sc2\n\nentity Course {\n    attr Code: char key\n}\n"}
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/schemas", shadow, nil); status != http.StatusCreated {
		t.Fatalf("upload shadowing schema: status %d", status)
	}
	want := observe(t, ts.Client(), ts.URL)
	for key, answer := range want {
		if strings.Contains(answer, "Zed") {
			t.Fatalf("%s still answers with the dropped row: %s", key, answer)
		}
	}

	ts.Close()
	srv.Kill()
	srv, _ = openDurable(t, dir, journal.Hooks{})
	ts = httptest.NewServer(srv.Handler())
	requireSameState(t, "after replay", want, observe(t, ts.Client(), ts.URL))
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Kill()
	srv, _ = openDurable(t, dir, journal.Hooks{})
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	requireSameState(t, "after snapshot recovery", want, observe(t, ts.Client(), ts.URL))
}
