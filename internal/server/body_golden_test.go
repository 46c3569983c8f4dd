package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/ecr"
	"repro/internal/workload"
)

var updateBodies = flag.Bool("update-bodies", false,
	"rewrite testdata/bodies from the running code instead of comparing against it")

// The golden bodies under testdata/bodies pin, byte for byte, what the
// design loop's large responses look like: the resemblance ranking and the
// ACS/OCS matrix of both kinds, the integrate response, a saved
// integration, a schema and a finished job. They were captured from the
// reflection encoder (writeJSON over json.RawMessage-embedded, indented
// schemas); any writer that replaces it must reproduce them exactly.

// bodyFixture is one schema pair with the equivalences and assertions
// declared on it before its bodies are read.
type bodyFixture struct {
	name    string
	s1, s2  *ecr.Schema
	equivs  [][4]string // schema1, object.attr, schema2, object.attr
	asserts []bodyAssert
}

type bodyAssert struct {
	o1   string
	code int
	o2   string
	rel  bool
}

func bodyFixtures(t *testing.T) []bodyFixture {
	t.Helper()
	var out []bodyFixture

	// A generated pair shaped like the benchmark's design sessions, with
	// its true equivalences declared and its true object pairs asserted.
	cfg := workload.DefaultConfig(7)
	cfg.Objects = 10
	cfg.Relationships = 3
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := bodyFixture{name: "generated", s1: w.S1, s2: w.S2}
	for _, class := range w.Registry.Classes() {
		for i := 1; i < len(class); i++ {
			a, z := class[0], class[i]
			if a.Schema == z.Schema && a.Object == z.Object {
				continue
			}
			gen.equivs = append(gen.equivs, [4]string{a.Schema, a.Object + "." + a.Attr, z.Schema, z.Object + "." + z.Attr})
		}
	}
	for _, p := range w.TruePairs {
		gen.asserts = append(gen.asserts, bodyAssert{o1: p.A.Object, code: p.Kind.Code(), o2: p.B.Object})
	}
	out = append(out, gen)

	// Names that exercise every escape of encoding/json: HTML characters,
	// a quote and a backslash, control bytes with and without a short
	// escape, U+2028/U+2029, and invalid UTF-8. Schema names stay valid
	// UTF-8 because requests name them in JSON bodies.
	odd1 := ecr.NewSchema(`a<b>&"c\`)
	odd2 := ecr.NewSchema("d\u2028e\u2029f")
	mustAdd(t, odd1.AddObject(&ecr.ObjectClass{Name: "P\x01q\tr", Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
		{Name: "K\x7fey", Domain: "char", Key: true}, {Name: "V\bal\f", Domain: "int"},
	}}))
	mustAdd(t, odd1.AddObject(&ecr.ObjectClass{Name: "S\xfft\xc3", Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
		{Name: "Id\u2028", Domain: "int", Key: true},
	}}))
	mustAdd(t, odd1.AddRelationship(&ecr.RelationshipSet{Name: "R\r\n<>", Attributes: []ecr.Attribute{{Name: "W\x1f", Domain: "real"}},
		Participants: []ecr.Participation{
			{Object: "P\x01q\tr", Card: ecr.Cardinality{Min: 0, Max: ecr.N}},
			{Object: "S\xfft\xc3", Card: ecr.Cardinality{Min: 1, Max: 1}},
		}}))
	mustAdd(t, odd2.AddObject(&ecr.ObjectClass{Name: "P&Q", Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
		{Name: "K\u2029", Domain: "char", Key: true}, {Name: "\xe2\x80", Domain: "int"},
	}}))
	mustAdd(t, odd2.AddObject(&ecr.ObjectClass{Name: "\u00e9\u4e16\U0001F600", Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
		{Name: "Z", Domain: "date", Key: true},
	}}))
	out = append(out, bodyFixture{
		name: "escapes", s1: odd1, s2: odd2,
		equivs: [][4]string{
			{odd1.Name, "P\x01q\tr.K\x7fey", odd2.Name, "P&Q.K\u2029"},
			{odd1.Name, "P\x01q\tr.V\bal\f", odd2.Name, "P&Q.\xe2\x80"},
		},
		asserts: []bodyAssert{{o1: "P\x01q\tr", code: 1, o2: "P&Q"}},
	})

	// No relationship sets on either side: the relationship ranking and
	// matrix are empty, and the mapping and cluster lists thin out.
	flat1, flat2 := ecr.NewSchema("flat1"), ecr.NewSchema("flat2")
	mustAdd(t, flat1.AddObject(&ecr.ObjectClass{Name: "Item", Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
		{Name: "Code", Domain: "char", Key: true}, {Name: "Price", Domain: "real"},
	}}))
	mustAdd(t, flat2.AddObject(&ecr.ObjectClass{Name: "Product", Kind: ecr.KindEntity, Attributes: []ecr.Attribute{
		{Name: "Code", Domain: "char", Key: true}, {Name: "Cost", Domain: "real"}, {Name: "Weight", Domain: "real"},
	}}))
	out = append(out, bodyFixture{
		name: "norelationships", s1: flat1, s2: flat2,
		equivs: [][4]string{{"flat1", "Item.Code", "flat2", "Product.Code"}},
	})
	return out
}

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// volatile matches the fields that differ from run to run: timings and
// job timestamps.
var volatile = regexp.MustCompile(`"(elapsedMs|created|started|finished)": ("[^"]*"|[-+.0-9eE]+)`)

func maskVolatile(b []byte) []byte {
	return volatile.ReplaceAll(b, []byte(`"$1": "*"`))
}

// fixtureBodies serves every golden route over the fixture and returns the
// bodies by file name.
func fixtureBodies(t *testing.T, fx bodyFixture) map[string][]byte {
	t.Helper()
	st := NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{fx.s1, fx.s2}); err != nil {
		t.Fatal(err)
	}
	for _, e := range fx.equivs {
		if err := st.DeclareEquivalence(e[0], e[1], e[2], e[3]); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range fx.asserts {
		if _, _, err := st.Assert(fx.s1.Name, a.o1, a.code, fx.s2.Name, a.o2, a.rel); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Workers: 1, QueueCapacity: 4, Store: st})
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	h := srv.Handler()

	serve := func(method, path string, body any, want int) []byte {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		} else {
			rd = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(method, path, rd)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q", method, path, ct)
		}
		return rec.Body.Bytes()
	}

	pair := func(kind string) string {
		return url.Values{"schema1": {fx.s1.Name}, "schema2": {fx.s2.Name}, "kind": {kind}}.Encode()
	}
	pairBody := map[string]string{"schema1": fx.s1.Name, "schema2": fx.s2.Name}
	out := map[string][]byte{}
	for _, kind := range []string{"objects", "relationships"} {
		out["resemblance_"+kind+".json"] = serve("GET", "/v1/resemblance?"+pair(kind), nil, http.StatusOK)
		out["matrix_"+kind+".json"] = serve("GET", "/v1/matrix?"+pair(kind), nil, http.StatusOK)
	}
	out["integrate.json"] = maskVolatile(serve("POST", "/v1/integrate", pairBody, http.StatusOK))
	serve("POST", "/v1/integrations", map[string]string{"name": "merged", "schema1": fx.s1.Name, "schema2": fx.s2.Name}, http.StatusCreated)
	out["integration.json"] = serve("GET", "/v1/integrations/merged", nil, http.StatusOK)
	out["schema.json"] = serve("GET", "/v1/schemas/"+url.PathEscape(fx.s1.Name), nil, http.StatusOK)

	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(serve("POST", "/v1/jobs", map[string]string{"type": "integrate", "schema1": fx.s1.Name, "schema2": fx.s2.Name}, http.StatusAccepted), &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := serve("GET", "/v1/jobs/"+sub.ID, nil, http.StatusOK)
		var job struct {
			State JobState `json:"state"`
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.State.Terminal() {
			if job.State != JobDone {
				t.Fatalf("job %s ended %s: %s", sub.ID, job.State, body)
			}
			out["job.json"] = maskVolatile(body)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 10s", sub.ID, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return out
}

// TestResponseBodiesGolden compares every golden route's body against the
// captured files. With -update-bodies it rewrites them instead.
func TestResponseBodiesGolden(t *testing.T) {
	sawEmpty := false
	for _, fx := range bodyFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "bodies", fx.name)
			for name, got := range fixtureBodies(t, fx) {
				path := filepath.Join(dir, name)
				if *updateBodies {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from the golden body at byte %d (got %d bytes, want %d)",
						path, firstDiff(got, want), len(got), len(want))
				}
				sawEmpty = sawEmpty || bytes.Contains(got, []byte(": []"))
			}
		})
	}
	// The handlers never hand the writers a nil list for these routes;
	// jsonbody_test.go covers null against the oracle directly.
	if !*updateBodies && !sawEmpty {
		t.Error("fixtures no longer cover an empty list")
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
