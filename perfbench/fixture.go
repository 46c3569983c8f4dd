package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"repro/internal/assertion"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/integrate"
	"repro/internal/mapping"
	"repro/internal/session"
	"repro/internal/workload"
)

// opKind names one request type of the benchmark's op streams. The same op
// value drives the HTTP run and the in-process traced replay.
type opKind uint8

const (
	opCreateWS opKind = iota
	opDeleteWS
	opUpload
	opDeclare
	opMatrix
	opResemblance
	opSchemas
	opAssertions
	opAssert
	opRetract
	opExplain
	opIntegrate
	opSave
	opRows
	opQuery
)

var opNames = [...]string{"create_ws", "delete_ws", "upload", "declare", "matrix", "resemblance",
	"schemas", "assertions", "assert", "retract", "explain", "integrate", "save", "rows", "query"}

func (k opKind) String() string { return opNames[k] }

// write reports whether the op is an acknowledged, journaled mutation.
func (k opKind) write() bool {
	switch k {
	case opCreateWS, opDeleteWS, opUpload, opDeclare, opAssert, opRetract, opSave, opRows:
		return true
	}
	return false
}

// op is one request: its HTTP form (method, path, body, expected status and
// an optional body check) plus the arguments the replay passes to the
// in-process entry points.
type op struct {
	kind   opKind
	ws     string
	method string
	path   string
	body   []byte
	admin  bool // sent with the admin key instead of the data key
	want   int
	check  *bodyCheck

	s1, s2       string // schema pair
	ref1, ref2   string // attribute refs (declare) or structure names (assert family)
	code         int
	rel          bool
	format, name string // upload
	src          []byte
	structure    string // rows
	rows         []instance.Row
	integration  string // save, query
	direction    string
	query        mapping.Query
}

func wsPath(ws, suffix string) string { return "/v1/workspaces/" + ws + suffix }

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode %T: %v", v, err)) // only benchmark-built values are encoded
	}
	return data
}

// truthPair is one ground-truth assertion of a generated pair.
type truthPair struct {
	a, b assertion.ObjKey
	kind assertion.Kind
	rel  bool
}

// pairFix is one generated schema pair with everything a session needs:
// upload sources, the ground-truth declares and assertions, and the oracle
// integration computed in-process.
type pairFix struct {
	w        *workload.Workload
	forms    *workload.Forms
	declares [][2]ecr.AttrRef
	truth    []truthPair
	oracle   *integrate.Result
	// oracleSchema is the oracle's integrated schema in the ECR JSON
	// encoding the server answers with.
	oracleSchema []byte
}

func newPairFix(cfg workload.Config) (*pairFix, error) {
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	forms, err := workload.GenerateForms(workload.FormsConfig{Seed: cfg.Seed, Objects: cfg.Objects / 2, AttrsPerObject: cfg.AttrsPerObject, Refs: cfg.Objects / 2})
	if err != nil {
		return nil, err
	}
	f := &pairFix{w: w, forms: forms}
	for _, class := range w.Registry.Classes() {
		for _, m := range class[1:] {
			f.declares = append(f.declares, [2]ecr.AttrRef{class[0], m})
		}
	}
	for _, t := range w.TruePairs {
		f.truth = append(f.truth, truthPair{a: t.A, b: t.B, kind: t.Kind})
	}
	seen := map[[2]assertion.ObjKey]bool{}
	for _, e := range w.Relationships.Entries() {
		k := [2]assertion.ObjKey{e.A, e.B}
		if e.Derived || e.A.Schema != w.S1.Name || seen[k] {
			continue
		}
		seen[k] = true
		f.truth = append(f.truth, truthPair{a: e.A, b: e.B, kind: e.Kind, rel: true})
	}
	f.oracle, err = integrate.Integrate(integrate.Input{
		S1: w.S1, S2: w.S2,
		Registry:      w.Registry.Clone(),
		Objects:       w.Objects.Clone(),
		Relationships: w.Relationships.Clone(),
	})
	if err != nil {
		return nil, fmt.Errorf("oracle integration: %w", err)
	}
	if f.oracleSchema, err = ecr.EncodeJSON(f.oracle.Schema); err != nil {
		return nil, err
	}
	return f, nil
}

// sessionOpts shapes one design session.
type sessionOpts struct {
	// reads interleaves matrix and resemblance reads between declares and
	// listings plus explains into the assertion stream.
	reads bool
	// formats uploads the pair's multi-format companion schema as SQL,
	// Avro and JSON Schema besides the pair itself.
	formats bool
	// save persists the integration under this name when set.
	save string
	// query ends the session on the paper's operational path: rows into
	// one integrated entity set and a view query through the integration
	// saved as "fed" (which save must name).
	query bool
}

// sessionOps renders the paper's four phases for one workspace: create it,
// upload the pair, declare the ground-truth equivalences one at a time, run
// an assert/retract stream over the ground-truth assertions, integrate.
func (f *pairFix) sessionOps(ws string, rng *rand.Rand, o sessionOpts) ([]*op, error) {
	var ops []*op
	add := func(x *op) { x.ws = ws; ops = append(ops, x) }
	add(&op{kind: opCreateWS, method: "POST", path: "/v1/workspaces", admin: true, want: 201,
		body: mustJSON(map[string]string{"name": ws})})

	upload := func(format, name string, src []byte, body map[string]any) {
		add(&op{kind: opUpload, method: "POST", path: wsPath(ws, "/schemas"), want: 201,
			format: format, name: name, src: src, body: mustJSON(body)})
	}
	ddl := ecr.FormatSchema(f.w.S1)
	upload("", "", []byte(ddl), map[string]any{"source": ddl})
	js, err := ecr.EncodeJSON(f.w.S2)
	if err != nil {
		panic(fmt.Sprintf("encode generated schema: %v", err)) // generated schemas always encode
	}
	upload("dictionary", "", js, map[string]any{"schema": json.RawMessage(js)})
	if o.formats {
		upload("sql", "fsql", []byte(f.forms.SQL), map[string]any{"source": f.forms.SQL, "format": "sql", "name": "fsql"})
		upload("avro", "favro", []byte(f.forms.Avro), map[string]any{"source": f.forms.Avro, "format": "avro", "name": "favro"})
		upload("jsonschema", "", []byte(f.forms.JSONSchema), map[string]any{"source": f.forms.JSONSchema, "format": "jsonschema"})
	}

	pairQuery := "?schema1=w1&schema2=w2"
	for _, d := range f.declares {
		r1, r2 := d[0].Object+"."+d[0].Attr, d[1].Object+"."+d[1].Attr
		add(&op{kind: opDeclare, method: "POST", path: wsPath(ws, "/equivalences"), want: 201,
			s1: d[0].Schema, ref1: r1, s2: d[1].Schema, ref2: r2,
			body: mustJSON(map[string]string{"schema1": d[0].Schema, "attr1": r1, "schema2": d[1].Schema, "attr2": r2})})
		if o.reads {
			add(&op{kind: opMatrix, method: "GET", path: wsPath(ws, "/matrix"+pairQuery), want: 200, s1: "w1", s2: "w2"})
			add(&op{kind: opResemblance, method: "GET", path: wsPath(ws, "/resemblance"+pairQuery), want: 200, s1: "w1", s2: "w2"})
		}
	}

	pending := append([]truthPair(nil), f.truth...)
	rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	var live []truthPair
	for n := 1; len(pending) > 0; n++ {
		if len(live) > 0 && rng.Float64() < 0.1 {
			i := rng.Intn(len(live))
			t := live[i]
			live = append(live[:i], live[i+1:]...)
			pending = append(pending, t)
			add(&op{kind: opRetract, method: "DELETE", path: wsPath(ws, "/assertions"), want: 200,
				s1: t.a.Schema, ref1: t.a.Object, s2: t.b.Schema, ref2: t.b.Object, rel: t.rel,
				body: mustJSON(map[string]any{"schema1": t.a.Schema, "object1": t.a.Object,
					"schema2": t.b.Schema, "object2": t.b.Object, "relationship": t.rel})})
		} else {
			t := pending[0]
			pending = pending[1:]
			live = append(live, t)
			add(&op{kind: opAssert, method: "POST", path: wsPath(ws, "/assertions"), want: 201,
				s1: t.a.Schema, ref1: t.a.Object, s2: t.b.Schema, ref2: t.b.Object, code: t.kind.Code(), rel: t.rel,
				body: mustJSON(map[string]any{"schema1": t.a.Schema, "object1": t.a.Object, "code": t.kind.Code(),
					"schema2": t.b.Schema, "object2": t.b.Object, "relationship": t.rel})})
		}
		if o.reads && n%4 == 0 && len(live) > 0 {
			add(&op{kind: opAssertions, method: "GET", path: wsPath(ws, "/assertions"+pairQuery), want: 200, s1: "w1", s2: "w2"})
			t := live[rng.Intn(len(live))]
			q := url.Values{"schema1": {t.a.Schema}, "schema2": {t.b.Schema}, "object1": {t.a.Object}, "object2": {t.b.Object}}
			if t.rel {
				q.Set("kind", "relationships")
			}
			add(&op{kind: opExplain, method: "GET", path: wsPath(ws, "/assertions/explain?"+q.Encode()), want: 200,
				s1: t.a.Schema, ref1: t.a.Object, s2: t.b.Schema, ref2: t.b.Object, rel: t.rel})
		}
	}

	add(&op{kind: opIntegrate, method: "POST", path: wsPath(ws, "/integrate"), want: 200, s1: "w1", s2: "w2",
		body:  mustJSON(map[string]string{"schema1": "w1", "schema2": "w2"}),
		check: newBodyCheck("integrated schema", f.checkIntegrated)})
	if o.save != "" {
		add(&op{kind: opSave, method: "POST", path: wsPath(ws, "/integrations"), want: 201,
			s1: "w1", s2: "w2", integration: o.save,
			body: mustJSON(map[string]string{"name": o.save, "schema1": "w1", "schema2": "w2"})})
	}
	if o.query {
		qops, err := f.viewQueryOps(ws, rng)
		if err != nil {
			return nil, err
		}
		ops = append(ops, qops...)
	}
	return ops, nil
}

// viewQueryOps loads a few rows into the integrated entity set a component
// view maps to, then queries the view through the integration "fed", checked
// against an oracle store holding the same rows.
func (f *pairFix) viewQueryOps(ws string, rng *rand.Rand) ([]*op, error) {
	q := fedQueries(rng, f, 2)[1] // odd queries lift a component view
	target, ok := f.oracle.Mappings.TargetObject(ecr.ObjectRef{Schema: q.Schema, Object: q.Object})
	if !ok {
		return nil, fmt.Errorf("oracle maps no integrated structure for %s.%s", q.Schema, q.Object)
	}
	s := f.oracle.Schema
	is, err := instance.NewStore(s.Clone())
	if err != nil {
		return nil, err
	}
	sr := structRows{schema: s.Name, structure: target, attrs: s.InheritedAttributes(target)}
	rows := makeRows(rng, sr, initialBase, 5, initialBase, initialSpan)
	if err := is.InsertAll(target, rows); err != nil {
		return nil, err
	}
	view, err := instance.NewViewExecutor(is, f.oracle.Mappings)
	if err != nil {
		return nil, err
	}
	qo, err := queryOp(ws, f, q, nil, view)
	if err != nil {
		return nil, err
	}
	return []*op{rowsOp(ws, sr, rows), qo}, nil
}

// checkIntegrated compares a POST /integrate answer with the oracle
// integration over the workload's ground-truth registry and assertions.
func (f *pairFix) checkIntegrated(body []byte) error {
	var resp struct {
		Schema json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	return jsonEqual(resp.Schema, f.oracleSchema)
}

// model is the benchmark's own copy of one workspace's state, built by
// applying the same ops in-process. It answers the checks (assertion
// listings, equivalence classes) and is the replay's shadow.
type model struct {
	ws *session.Workspace
}

func newModel() *model { return &model{ws: session.NewWorkspace()} }

// apply mirrors the state change of one acknowledged op.
func (m *model) apply(o *op) error {
	switch o.kind {
	case opUpload:
		res, err := parseUpload(o)
		if err != nil {
			return err
		}
		for _, s := range res {
			if err := m.ws.AddSchema(s); err != nil {
				return err
			}
		}
	case opDeclare:
		a, b, err := m.refs(o)
		if err != nil {
			return err
		}
		return m.ws.Registry().Declare(a, b)
	case opAssert:
		kind, err := assertion.KindFromCode(o.code)
		if err != nil {
			return err
		}
		res := m.engine(o).AssertAndClose(assertion.ObjKey{Schema: o.s1, Object: o.ref1}, assertion.ObjKey{Schema: o.s2, Object: o.ref2}, kind)
		if !res.Consistent() {
			return fmt.Errorf("model: assertion %s/%s conflicts", o.ref1, o.ref2)
		}
	case opRetract:
		if _, err := m.engine(o).Retract(assertion.ObjKey{Schema: o.s1, Object: o.ref1}, assertion.ObjKey{Schema: o.s2, Object: o.ref2}); err != nil {
			return err
		}
	}
	return nil
}

func (m *model) engine(o *op) *assertion.Engine {
	if o.rel {
		return m.ws.RelationshipAssertions(o.s1, o.s2)
	}
	return m.ws.ObjectAssertions(o.s1, o.s2)
}

func (m *model) refs(o *op) (ecr.AttrRef, ecr.AttrRef, error) {
	s1, s2 := m.ws.Schema(o.s1), m.ws.Schema(o.s2)
	if s1 == nil || s2 == nil {
		return ecr.AttrRef{}, ecr.AttrRef{}, fmt.Errorf("model: unknown schema pair %s/%s", o.s1, o.s2)
	}
	a, err := core.ResolveAttr(s1, o.ref1)
	if err != nil {
		return a, a, err
	}
	b, err := core.ResolveAttr(s2, o.ref2)
	return a, b, err
}

// listing renders the pair's assertion matrix as GET /assertions does.
func (m *model) listing(s1, s2 string, rel bool) []byte {
	eng := m.ws.ObjectAssertions(s1, s2)
	if rel {
		eng = m.ws.RelationshipAssertions(s1, s2)
	}
	type entryJSON struct {
		Statement string `json:"statement"`
		Derived   bool   `json:"derived"`
	}
	out := []entryJSON{}
	for _, e := range eng.Entries() {
		out = append(out, entryJSON{Statement: e.Statement.String(), Derived: e.Derived})
	}
	return mustJSON(out)
}

// --- federation fixture: instance rows and queries ---

// Row values are zero-padded six-digit numbers, which order the same way
// numerically and lexically. Initial rows draw every value below
// loadedBase; rows loaded during the run draw every value from loadedBase
// up. Every query filters on a value below loadedBase, so its answer is
// fixed at set-up while the run's loads still grow the scanned stores.
const (
	initialBase = 100000
	initialSpan = 300000
	loadedBase  = 500000
)

// structRows names one structure that takes rows and its columns.
type structRows struct {
	schema, structure string
	attrs             []ecr.Attribute
}

func rowStructures(s *ecr.Schema) []structRows {
	var out []structRows
	for _, o := range s.Objects {
		out = append(out, structRows{schema: s.Name, structure: o.Name, attrs: s.InheritedAttributes(o.Name)})
	}
	return out
}

// makeRows builds n rows for a structure; keys count up from first.
func makeRows(rng *rand.Rand, st structRows, first, n int, base, span int) []instance.Row {
	rows := make([]instance.Row, n)
	for i := range rows {
		row := instance.Row{}
		for _, a := range st.attrs {
			v := base + rng.Intn(span)
			if a.Key {
				v = first + i
			}
			row[a.Name] = strconv.Itoa(v)
		}
		rows[i] = row
	}
	return rows
}

// fedQueries builds n queries over the saved integration "fed": half fan
// out from the integrated schema to the components, half lift a component
// view to the integrated schema.
func fedQueries(rng *rand.Rand, f *pairFix, n int) []mapping.Query {
	var cands []mapping.Query
	addFrom := func(s *ecr.Schema) {
		for _, o := range s.Objects {
			attrs := s.InheritedAttributes(o.Name)
			var key, other string
			for _, a := range attrs {
				if a.Key && key == "" {
					key = a.Name
				} else if !a.Key && other == "" {
					other = a.Name
				}
			}
			if key == "" || other == "" {
				continue
			}
			cands = append(cands, mapping.Query{Schema: s.Name, Object: o.Name, Project: []string{key, other}})
		}
	}
	var integrated, views []mapping.Query
	addFrom(f.oracle.Schema)
	integrated, cands = cands, nil
	addFrom(f.w.S1)
	addFrom(f.w.S2)
	views = cands
	out := make([]mapping.Query, n)
	for i := range out {
		src := integrated
		if i%2 == 1 {
			src = views
		}
		q := src[rng.Intn(len(src))]
		q.Project = append([]string(nil), q.Project...)
		q.Where = []mapping.Predicate{{Attr: q.Project[1], Op: "<", Value: strconv.Itoa(initialBase + rng.Intn(initialSpan))}}
		out[i] = q
	}
	return out
}
