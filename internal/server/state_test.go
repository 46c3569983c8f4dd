package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/workload"
)

// stateSeeds is the fixed seed set of the workspace-state property test.
var stateSeeds = []int64{1, 2, 3, 4}

// Tokens of the property test's key sets. Every request carries the admin
// token, which every set includes; the data tokens only feed the auth
// probes that observe the key set in force.
const (
	propAdminKey = "prop-admin-key"
	propDataKeyA = "prop-data-key-a"
	propDataKeyB = "prop-data-key-b"
)

// propKeySets are the key files the stream installs, in order: the second
// narrows one data key and adds another, so last-record-wins is visible.
var propKeySets = []string{
	propAdminKey + " admin\n" + propDataKeyA + " data *\n",
	propAdminKey + " admin\n" + propDataKeyA + " data default\n" + propDataKeyB + " data alt\n",
}

// TestStateReplayRestoreBootstrapProperty is the semantic guard of the one
// snapshot/restore/replay path: for random op streams over two workspaces,
// the state a client can read back must be identical on the live leader,
// on the same data directory reopened after a crash, on it reopened after a
// full compaction and a crash, and on a follower started after a leader
// compaction — once caught up (snapshot bootstrap plus frames) and again
// after promotion.
func TestStateReplayRestoreBootstrapProperty(t *testing.T) {
	for _, seed := range stateSeeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkStatePaths(t, seed) })
	}
}

func checkStatePaths(t *testing.T, seed int64) {
	dirL := t.TempDir()
	h := &propHarness{t: t, rng: rand.New(rand.NewSource(seed)), keysDir: t.TempDir(), followDir: t.TempDir()}
	h.attach(openProp(t, dirL, nil))
	for _, step := range propStream(t, seed) {
		step(h)
	}
	want := observe(t, h.client, h.base)
	if h.follower == nil {
		t.Fatal("the stream never started the follower")
	}

	// (c) The follower catches up: it bootstrapped from a snapshot and then
	// applied frames.
	waitFor(t, 20*time.Second, func() bool { return caughtUp(h.srv, h.follower) }, "follower to catch up")
	fs := httptest.NewServer(h.follower.Handler())
	defer fs.Close()
	defer h.follower.Kill()
	if rs := h.follower.replicationSnapshot(); rs.SnapshotsFetched == 0 || rs.RecordsApplied == 0 {
		t.Fatalf("follower fetched %d snapshots and applied %d records; want both paths exercised",
			rs.SnapshotsFetched, rs.RecordsApplied)
	}
	requireSameState(t, "caught-up follower", want, observe(t, fs.Client(), fs.URL))

	// (a) The same data directory reopened after a crash.
	h.detach()
	h.attach(openProp(t, dirL, nil))
	requireSameState(t, "leader reopened after Kill", want, observe(t, h.client, h.base))

	// (b) Reopened again after a full compaction and a crash.
	if err := h.srv.Compact(); err != nil {
		t.Fatal(err)
	}
	h.detach()
	h.attach(openProp(t, dirL, nil))
	requireSameState(t, "leader reopened after Compact and Kill", want, observe(t, h.client, h.base))
	h.detach()

	// (c) The follower again, promoted to leader.
	if status, body := propRequest(t, fs.Client(), "POST", fs.URL+"/v1/promote", nil); status != http.StatusOK {
		t.Fatalf("promote: status %d: %s", status, body)
	}
	requireSameState(t, "promoted follower", want, observe(t, fs.Client(), fs.URL))
}

// openProp opens a durable server for the property test: a leader, or with
// follow set a follower of that leader URL.
func openProp(t testing.TB, dir string, follow *FollowerConfig) *Server {
	t.Helper()
	// A snapshot cadence no stream reaches: every compaction is the
	// stream's own, at the point it chose.
	srv, _, err := Open(Config{Workers: 2, QueueCapacity: 16, Follow: follow},
		DurabilityConfig{Dir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// caughtUp reports whether the follower mirrors every leader workspace at
// the leader's journal sequence number.
func caughtUp(leader, follower *Server) bool {
	for _, lw := range leader.manager.List() {
		fw, err := follower.manager.Get(lw.name)
		if err != nil {
			return false
		}
		rep := fw.replica.Load()
		if rep == nil {
			return false
		}
		rep.mu.Lock()
		applied := rep.appliedSeq
		rep.mu.Unlock()
		if applied != lw.persist.j.Seq() {
			return false
		}
	}
	return len(follower.manager.List()) == len(leader.manager.List())
}

// propHarness runs one op stream against the current leader process.
type propHarness struct {
	t       testing.TB
	rng     *rand.Rand
	srv     *Server
	ts      *httptest.Server
	client  *http.Client
	base    string
	keysDir string
	// nextKey numbers instance-row keys so no batch ever collides.
	nextKey int
	// followDir is where the stream starts its follower; follower is nil
	// until then.
	followDir string
	follower  *Server
}

func (h *propHarness) attach(srv *Server) {
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	h.client, h.base = h.ts.Client(), h.ts.URL
}

// detach crashes the leader: no drain, no final compaction.
func (h *propHarness) detach() {
	h.ts.Close()
	h.srv.Kill()
}

// do sends one request and requires the given status.
func (h *propHarness) do(method, path string, body any, want int) []byte {
	h.t.Helper()
	status, data := propRequest(h.t, h.client, method, h.base+path, body)
	if status != want {
		h.t.Fatalf("%s %s: status %d, want %d: %s", method, path, status, want, data)
	}
	return data
}

// propRequest sends one request with the admin token and returns the
// status and body.
func propRequest(t testing.TB, client *http.Client, method, url string, body any) (int, []byte) {
	t.Helper()
	return tokenRequest(t, client, method, url, propAdminKey, body)
}

func tokenRequest(t testing.TB, client *http.Client, method, url, token string, body any) (int, []byte) {
	t.Helper()
	var r io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// propStep is one step of a generated stream.
type propStep func(h *propHarness)

// propStream generates the seed's op stream: the alt workspace is created,
// then the two workspaces' streams are interleaved at random together with
// two key-set changes. Compactions land at random points of the first half;
// the last one, halfway in, also starts the follower, so it bootstraps from
// a snapshot and then applies the second half as frames — the same half
// the leader's journal tail replays on reopen.
func propStream(t testing.TB, seed int64) []propStep {
	rng := rand.New(rand.NewSource(seed))
	var keys, compactions []propStep
	for _, content := range propKeySets {
		keys = append(keys, keysStep(content))
	}
	for i := rng.Intn(3); i >= 0; i-- {
		compactions = append(compactions, compactStep)
	}
	steps := interleave(rng,
		workspaceStream(t, seed*2, DefaultWorkspace),
		workspaceStream(t, seed*2+1, "alt"),
		keys)
	at := len(steps) / 2
	head := append(interleave(rng, steps[:at], compactions), compactStep, startFollower)
	steps = append(head, steps[at:]...)
	create := func(h *propHarness) {
		h.do("POST", "/v1/workspaces", workspaceRequest{Name: "alt"}, http.StatusCreated)
	}
	return append([]propStep{create}, steps...)
}

// interleave merges the sequences at random, keeping each one's order.
func interleave(rng *rand.Rand, seqs ...[]propStep) []propStep {
	var out []propStep
	for {
		total := 0
		for _, s := range seqs {
			total += len(s)
		}
		if total == 0 {
			return out
		}
		// Weighted by remaining length, so short sequences spread out.
		pick := rng.Intn(total)
		for i, s := range seqs {
			if pick < len(s) {
				out = append(out, s[0])
				seqs[i] = s[1:]
				break
			}
			pick -= len(s)
		}
	}
}

func compactStep(h *propHarness) {
	h.t.Helper()
	if err := h.srv.Compact(); err != nil {
		h.t.Fatal(err)
	}
}

func keysStep(content string) propStep {
	return func(h *propHarness) {
		h.t.Helper()
		if err := h.srv.SetKeysFile(writeKeys(h.t, h.keysDir, content)); err != nil {
			h.t.Fatal(err)
		}
	}
}

func startFollower(h *propHarness) {
	h.follower = openProp(h.t, h.followDir, &FollowerConfig{
		Leader: h.base, PollInterval: 3 * time.Millisecond, APIKey: propAdminKey,
	})
}

// workspaceStream generates one workspace's op stream from a workload
// schema pair w1/w2 that also holds the objects of a GenerateAssertions
// stream: schema uploads, the pair's true equivalences and assertions, the
// generated assert/retract stream, row batches, integration jobs, saved
// integrations with rows loaded into their integrated schemas, and a third
// schema that is added, used and removed again.
func workspaceStream(t testing.TB, seed int64, ws string) []propStep {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := workload.Generate(workload.Config{
		Seed: seed, Objects: 6, AttrsPerObject: 3, Overlap: 0.5, Relationships: 2, NamingNoise: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	aops, err := workload.GenerateAssertions(workload.AssertionConfig{
		Seed: seed, Ops: 40, Components: 1, Depth: 3, RetractFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]*ecr.Schema{"w1": w.S1, "w2": w.S2}
	var asserts []propStep
	for _, op := range aops {
		// The stream pairs objects within one schema too; the server keys
		// assertion matrices by schema pair, and integration reads the
		// cross-schema ones, so only those are kept.
		if op.A.Schema == op.B.Schema {
			continue
		}
		for _, k := range []struct{ schema, object string }{{op.A.Schema, op.A.Object}, {op.B.Schema, op.B.Object}} {
			if s := schemas[k.schema]; s.Object(k.object) == nil {
				if err := s.AddObject(&ecr.ObjectClass{Name: k.object, Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
					{Name: "Id", Domain: "int", Key: true}, {Name: "Val", Domain: "int"},
				}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if op.Op == workload.OpRetract {
			asserts = append(asserts, wsStep(ws, "DELETE", "/assertions", retractRequest{
				Schema1: op.A.Schema, Object1: op.A.Object, Schema2: op.B.Schema, Object2: op.B.Object,
			}, http.StatusOK))
			continue
		}
		asserts = append(asserts, wsStep(ws, "POST", "/assertions", assertionRequest{
			Schema1: op.A.Schema, Object1: op.A.Object, Code: op.Kind.Code(), Schema2: op.B.Schema, Object2: op.B.Object,
		}, http.StatusCreated))
	}
	for _, p := range w.TruePairs {
		asserts = append(asserts, wsStep(ws, "POST", "/assertions", assertionRequest{
			Schema1: p.A.Schema, Object1: p.A.Object, Code: p.Kind.Code(), Schema2: p.B.Schema, Object2: p.B.Object,
		}, http.StatusCreated))
	}
	for _, s := range []*ecr.Schema{w.S1, w.S2} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	s1JSON, err := ecr.EncodeJSON(w.S1)
	if err != nil {
		t.Fatal(err)
	}
	x := w.S1.Clone()
	x.Name = "x1"
	xJSON, err := ecr.EncodeJSON(x)
	if err != nil {
		t.Fatal(err)
	}
	uploads := []propStep{
		wsStep(ws, "POST", "/schemas", schemasRequest{Schema: s1JSON}, http.StatusCreated),
		wsStep(ws, "POST", "/schemas", schemasRequest{DDL: ecr.FormatSchema(w.S2)}, http.StatusCreated),
	}

	var declares []propStep
	for _, class := range w.Registry.Classes() {
		for _, m := range class[1:] {
			declares = append(declares, wsStep(ws, "POST", "/equivalences", equivalenceRequest{
				Schema1: class[0].Schema, Attr1: class[0].Object + "." + class[0].Attr,
				Schema2: m.Schema, Attr2: m.Object + "." + m.Attr,
			}, http.StatusCreated))
		}
	}

	var rows []propStep
	for i := 0; i < 4; i++ {
		s := []*ecr.Schema{w.S1, w.S2}[rng.Intn(2)]
		o := s.Objects[rng.Intn(len(s.Objects))]
		rows = append(rows, rowsStep(ws, s, o.Name))
	}

	xo := x.Objects[0]
	third := []propStep{
		wsStep(ws, "POST", "/schemas", schemasRequest{Schema: xJSON}, http.StatusCreated),
		rowsStep(ws, x, xo.Name),
		wsStep(ws, "POST", "/equivalences", equivalenceRequest{
			Schema1: "w1", Attr1: xo.Name + "." + xo.Attributes[0].Name,
			Schema2: "x1", Attr2: xo.Name + "." + xo.Attributes[0].Name,
		}, http.StatusCreated),
		wsStep(ws, "POST", "/assertions", assertionRequest{
			Schema1: "w1", Object1: xo.Name, Code: 1, Schema2: "x1", Object2: xo.Name,
		}, http.StatusCreated),
	}
	if rng.Intn(4) > 0 {
		third = append(third, wsStep(ws, "DELETE", "/schemas/x1", nil, http.StatusOK))
	}

	jobs := []propStep{
		jobStep(ws, JobRequest{Type: "integrate", Schema1: "w1", Schema2: "w2"}, JobDone),
		jobStep(ws, JobRequest{Type: "integrate", Schema1: "w1", Schema2: "nope"}, JobFailed),
	}
	saves := []propStep{
		saveStep(ws, "fed"), integratedRowsStep(ws),
		integratedRowsStep(ws), saveStep(ws, "fed2"),
		integratedRowsStep(ws), saveStep(ws, "fed"), integratedRowsStep(ws),
	}

	// Uploads come first; everything else interleaves at random, each kind
	// in its own order and spread over the whole stream.
	return append(uploads, interleave(rng, declares, asserts, saves, rows, third, jobs)...)
}

// wsStep is one request against a workspace route.
func wsStep(ws, method, suffix string, body any, want int) propStep {
	return func(h *propHarness) {
		h.t.Helper()
		h.do(method, "/v1/workspaces/"+ws+suffix, body, want)
	}
}

// rowsStep loads a batch of fresh rows into one structure of a schema.
func rowsStep(ws string, s *ecr.Schema, structure string) propStep {
	attrs := s.InheritedAttributes(structure)
	return func(h *propHarness) {
		h.t.Helper()
		h.do("POST", "/v1/workspaces/"+ws+"/rows", rowsRequest{
			Schema: s.Name, Structure: structure, Rows: h.rows(attrs, 1+h.rng.Intn(3)),
		}, http.StatusCreated)
	}
}

// rows builds n rows over the attributes with fresh key values.
func (h *propHarness) rows(attrs []ecr.Attribute, n int) []instance.Row {
	out := make([]instance.Row, n)
	for i := range out {
		row := instance.Row{}
		for _, a := range attrs {
			v := 100000 + h.rng.Intn(900000)
			if a.Key {
				h.nextKey++
				v = h.nextKey
			}
			row[a.Name] = fmt.Sprintf("%06d", v)
		}
		out[i] = row
	}
	return out
}

func saveStep(ws, name string) propStep {
	return wsStep(ws, "POST", "/integrations", integrationsRequest{Name: name, Schema1: "w1", Schema2: "w2"}, http.StatusCreated)
}

// integratedRowsStep loads rows into a random entity set of the integrated
// schema of the first saved integration in name order: an integrated
// schema name resolves to the first integration that materializes it, so
// that integration's schema is the one the rows are stored under.
func integratedRowsStep(ws string) propStep {
	return func(h *propHarness) {
		h.t.Helper()
		var list struct {
			Integrations []IntegrationInfo `json:"integrations"`
		}
		if err := json.Unmarshal(h.do("GET", "/v1/workspaces/"+ws+"/integrations", nil, http.StatusOK), &list); err != nil {
			h.t.Fatal(err)
		}
		name := list.Integrations[0].Name
		var got struct {
			Schema json.RawMessage `json:"schema"`
		}
		if err := json.Unmarshal(h.do("GET", "/v1/workspaces/"+ws+"/integrations/"+name, nil, http.StatusOK), &got); err != nil {
			h.t.Fatal(err)
		}
		s, err := ecr.DecodeJSON(got.Schema)
		if err != nil {
			h.t.Fatal(err)
		}
		o := s.Objects[h.rng.Intn(len(s.Objects))]
		h.do("POST", "/v1/workspaces/"+ws+"/rows", rowsRequest{
			Schema: s.Name, Structure: o.Name, Rows: h.rows(s.InheritedAttributes(o.Name), 1+h.rng.Intn(3)),
		}, http.StatusCreated)
	}
}

// jobStep submits an integration job and waits for it to end in want.
func jobStep(ws string, req JobRequest, want JobState) propStep {
	return func(h *propHarness) {
		h.t.Helper()
		var job Job
		if err := json.Unmarshal(h.do("POST", "/v1/workspaces/"+ws+"/jobs", req, http.StatusAccepted), &job); err != nil {
			h.t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !job.State.Terminal() {
			if time.Now().After(deadline) {
				h.t.Fatalf("job %s never finished: %+v", job.ID, job)
			}
			time.Sleep(time.Millisecond)
			if err := json.Unmarshal(h.do("GET", "/v1/workspaces/"+ws+"/jobs/"+job.ID, nil, http.StatusOK), &job); err != nil {
				h.t.Fatal(err)
			}
		}
		if job.State != want {
			h.t.Fatalf("job %s ended %s, want %s: %+v", job.ID, job.State, want, job)
		}
	}
}

// observation is what a client can read back from a server, keyed by the
// read: each value is the answer's status and body.
type observation map[string]string

// observe reads a server's full client-visible state through the public
// API alone: per workspace, every schema as JSON, the equivalence classes,
// every ordered schema pair's object and relationship assertion listings
// (derived entries included), the saved integrations with their schemas
// and mapping tables, the answer of a query on every structure through
// every integration in both directions, and the job table; plus the key
// set in force, probed with every token the stream uses.
func observe(t testing.TB, client *http.Client, base string) observation {
	t.Helper()
	obs := observation{}
	read := func(key, method, path string, body any) []byte {
		t.Helper()
		status, data := propRequest(t, client, method, base+path, body)
		obs[key] = fmt.Sprintf("%d %s", status, data)
		return data
	}
	var list struct {
		Workspaces []struct {
			Name string `json:"name"`
		} `json:"workspaces"`
	}
	if err := json.Unmarshal(read("workspaces", "GET", "/v1/workspaces", nil), &list); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ws := range list.Workspaces {
		names = append(names, ws.Name)
	}
	obs["workspaces"] = strings.Join(names, ",")

	for _, ws := range names {
		p := "/v1/workspaces/" + ws
		var schemas struct {
			Schemas []SchemaStats `json:"schemas"`
		}
		if err := json.Unmarshal(read(ws+" schemas", "GET", p+"/schemas", nil), &schemas); err != nil {
			t.Fatal(err)
		}
		for _, s := range schemas.Schemas {
			read(ws+" schema "+s.Name, "GET", p+"/schemas/"+s.Name, nil)
		}
		read(ws+" equivalences", "GET", p+"/equivalences", nil)
		for _, a := range schemas.Schemas {
			for _, b := range schemas.Schemas {
				if a.Name == b.Name {
					continue
				}
				q := "?schema1=" + a.Name + "&schema2=" + b.Name
				read(ws+" assertions "+q, "GET", p+"/assertions"+q, nil)
				read(ws+" relationship assertions "+q, "GET", p+"/assertions"+q+"&kind=relationships", nil)
			}
		}

		var ints struct {
			Integrations []IntegrationInfo `json:"integrations"`
		}
		if err := json.Unmarshal(read(ws+" integrations", "GET", p+"/integrations", nil), &ints); err != nil {
			t.Fatal(err)
		}
		for _, info := range ints.Integrations {
			var got struct {
				Schema json.RawMessage `json:"schema"`
			}
			if err := json.Unmarshal(read(ws+" integration "+info.Name, "GET", p+"/integrations/"+info.Name, nil), &got); err != nil {
				t.Fatal(err)
			}
			integrated, err := ecr.DecodeJSON(got.Schema)
			if err != nil {
				t.Fatal(err)
			}
			targets := []*ecr.Schema{integrated}
			for _, c := range info.Components {
				status, data := propRequest(t, client, "GET", base+p+"/schemas/"+c, nil)
				if status != http.StatusOK {
					continue // removed since; its absence is observed above
				}
				var comp struct {
					Schema json.RawMessage `json:"schema"`
				}
				if err := json.Unmarshal(data, &comp); err != nil {
					t.Fatal(err)
				}
				s, err := ecr.DecodeJSON(comp.Schema)
				if err != nil {
					t.Fatal(err)
				}
				targets = append(targets, s)
			}
			for _, s := range targets {
				for _, o := range s.Objects {
					key := fmt.Sprintf("%s query %s %s.%s", ws, info.Name, s.Name, o.Name)
					obs[key] = queryAnswer(t, client, base+p+"/query", queryRequest{
						Integration: info.Name, Query: queryJSON{Schema: s.Name, Object: o.Name},
					})
				}
			}
		}
		read(ws+" jobs", "GET", p+"/jobs", nil)

		for _, token := range []string{propAdminKey, propDataKeyA, propDataKeyB, "prop-unknown-key", ""} {
			status, _ := tokenRequest(t, client, "GET", base+p+"/schemas", token, nil)
			obs[fmt.Sprintf("%s auth %q", ws, token)] = fmt.Sprint(status)
		}
	}
	for _, token := range []string{propAdminKey, propDataKeyA} {
		status, _ := tokenRequest(t, client, "GET", base+"/v1/workspaces", token, nil)
		obs[fmt.Sprintf("admin auth %q", token)] = fmt.Sprint(status)
	}
	return obs
}

// queryAnswer runs one query and renders its answer with the rows in a
// canonical order: the order federated rows merge in is not part of the
// contract.
func queryAnswer(t testing.TB, client *http.Client, url string, q queryRequest) string {
	t.Helper()
	status, data := propRequest(t, client, "POST", url, q)
	if status != http.StatusOK {
		return fmt.Sprintf("%d %s", status, data)
	}
	var resp queryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = string(b)
	}
	sort.Strings(rows)
	resp.Rows = nil
	head, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s rows=%s", status, head, strings.Join(rows, ","))
}

// requireSameState fails listing every read whose answer differs from the
// reference observation.
func requireSameState(t testing.TB, label string, want, got observation) {
	t.Helper()
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if want[k] != got[k] {
			diffs = append(diffs, fmt.Sprintf("%s:\n  want %s\n  got  %s", k, clip(want[k]), clip(got[k])))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		t.Fatalf("%s: %d reads differ:\n%s", label, len(diffs), strings.Join(diffs, "\n"))
	}
}

func clip(s string) string {
	if len(s) > 300 {
		return s[:300] + "…"
	}
	return s
}
