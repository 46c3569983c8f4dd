package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// scale sizes the workloads. fullScale is the benchmark; smokeScale keeps
// every check at a size the smoke test runs in seconds.
type scale struct {
	tenants        int
	tenantObjects  int
	tenantRate     float64 // offered ops/s, both connections together
	designObjects  int
	designPairs    int // distinct pairs a design-session run cycles through
	fedWorkspaces  int
	fedObjects     int
	fedRows        int // initial rows per structure
	fedBatch       int // rows per POST /rows in the run
	fedQueries     int // distinct queries per workspace
	fedRate        float64
	setups         int           // set-ups per run; setup_s is their median
	lateRounds     int           // rounds of set-up sessions rerun after the measured phase
	lateWindow     time.Duration // the late rounds start spread over this time
	recoveries     int           // kill-restart cycles per run; recovery_s is their median
	recoveryWindow time.Duration // the recovery cycles start spread over this time
	pollInterval   string
}

var fullScale = scale{
	tenants: 8, tenantObjects: 8, tenantRate: 1000,
	designObjects: 40, designPairs: 48,
	fedWorkspaces: 4, fedObjects: 16, fedRows: 100, fedBatch: 1, fedQueries: 24, fedRate: 1000,
	setups: 5, lateRounds: 20, lateWindow: 10 * time.Second,
	recoveries: 21, recoveryWindow: 6 * time.Second, pollInterval: "20ms",
}

var smokeScale = scale{
	tenants: 2, tenantObjects: 6, tenantRate: 100,
	designObjects: 10, designPairs: 4,
	fedWorkspaces: 1, fedObjects: 8, fedRows: 10, fedBatch: 2, fedQueries: 4, fedRate: 60,
	setups: 1, lateRounds: 1, recoveries: 1, pollInterval: "20ms",
}

// setupOpts shapes the design sessions tenant-mix and federated-query run
// at set-up and again after the measured phase.
func setupOpts(workload string) sessionOpts {
	if workload == "federated-query" {
		return sessionOpts{reads: true, save: "fed"}
	}
	return sessionOpts{save: "fed", query: true}
}

// cluster is one leader plus its follower, both child sit-server
// processes journaling with an fsync per write.
type cluster struct {
	dir      string
	leader   *serverProc
	follower *serverProc
	lc       *conn // set-up and verification traffic to the leader
	fc       *conn // verification traffic to the follower
	keys     bool
	// followArgs are the follower's flags beyond the durable defaults.
	followArgs []string
}

func startCluster(bin, dir string, keys bool, poll string, snapshotEvery int, leaderArgs []string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cl := &cluster{dir: dir, keys: keys}
	every := []string{"-snapshot-every", strconv.Itoa(snapshotEvery)}
	leaderArgs = append(every, leaderArgs...)
	followArgs := every
	if keys {
		path := filepath.Join(dir, "keys")
		if err := os.WriteFile(path, []byte(adminToken+" admin\n"+dataToken+" data *\n"), 0o600); err != nil {
			return nil, err
		}
		leaderArgs = append([]string{"-keys", path}, leaderArgs...)
		followArgs = append(followArgs, "-follow-key", adminToken)
	}
	var err error
	if cl.leader, err = newServerProc(bin, filepath.Join(dir, "leader"), filepath.Join(dir, "leader.log"), leaderArgs...); err != nil {
		return nil, err
	}
	if err := cl.leader.start(); err != nil {
		return nil, err
	}
	cl.lc = newConn(cl.leader.url(), keys)
	cl.followArgs = append(followArgs, "-follow", cl.leader.url(), "-poll-interval", poll)
	return cl, nil
}

// follow starts the follower. The set-up starts it once the leader holds
// its initial workspaces: a follower that finds a single workspace
// long-polls it for 50 poll intervals before it looks for new ones.
func (cl *cluster) follow(bin string) error {
	var err error
	if cl.follower, err = newServerProc(bin, filepath.Join(cl.dir, "follower"), filepath.Join(cl.dir, "follower.log"), cl.followArgs...); err != nil {
		return err
	}
	if err := cl.follower.start(); err != nil {
		return err
	}
	cl.fc = newConn(cl.follower.url(), cl.keys)
	return nil
}

// stop shuts both servers down and waits for them.
func (cl *cluster) stop() {
	cl.lc.close()
	if cl.follower != nil {
		cl.fc.close()
		cl.follower.stop()
	}
	cl.leader.stop()
}

// catchUp waits until the follower's journal holds every workspace at the
// leader's sequence number.
func (cl *cluster) catchUp(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ls, err := cl.lc.seqs()
		if err != nil {
			return err
		}
		fs, err := cl.fc.seqs()
		if err != nil {
			return err
		}
		behind := ""
		for ws, s := range ls {
			if fs[ws] != s {
				behind = fmt.Sprintf("%s at %d of %d", ws, fs[ws], s)
				break
			}
		}
		if behind == "" && len(fs) == len(ls) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %v: %s", limit, behind)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runSerial runs ops one after another on c (a closed loop of one client),
// recording the generator's own gap between a reply and the next send. It
// returns each op's latency.
func runSerial(rec *recorder, c *conn, ops []*op) ([]time.Duration, error) {
	lats := make([]time.Duration, 0, len(ops))
	var prev time.Time
	for _, o := range ops {
		now := time.Now()
		if !prev.IsZero() {
			rec.mu.Lock()
			rec.gaps.add(now.Sub(prev))
			rec.mu.Unlock()
		}
		lat, err := rec.exec(c, o, now)
		prev = time.Now()
		if err != nil {
			return lats, err
		}
		lats = append(lats, lat)
	}
	return lats, nil
}

// openLoop sends ops[i] at start+i/rate until dur has passed, onto the
// queue route(i) names; each queue is served by its own connections. It
// returns how late the generator itself ran behind the schedule, the time
// from the first due time to the last response, and each op's latency (0
// for an op not sent or failed).
func openLoop(rec *recorder, queues [][]*conn, ops []*op, route func(int) int, rate float64, dur time.Duration) (late samples, elapsed time.Duration, lats []time.Duration) {
	type sched struct {
		i   int
		due time.Time
	}
	lats = make([]time.Duration, len(ops)) // each index is written by one worker
	chans := make([]chan sched, len(queues))
	done := make(chan struct{})
	workers := 0
	for qi, conns := range queues {
		chans[qi] = make(chan sched, len(ops)) // never blocks the dispatcher
		for _, c := range conns {
			workers++
			go func(c *conn, ch chan sched) {
				for s := range ch {
					lat, err := rec.exec(c, ops[s.i], s.due)
					if err == nil { // failures are counted by exec
						lats[s.i] = lat
					}
				}
				done <- struct{}{}
			}(c, chans[qi])
		}
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late.add(time.Since(due))
		chans[route(i)] <- sched{i: i, due: due}
	}
	for _, ch := range chans {
		close(ch)
	}
	for ; workers > 0; workers-- {
		<-done
	}
	return late, time.Since(start), lats
}

// --- workload state ---

// wsState is what the benchmark knows about one workspace it built: the
// oracle model of its acknowledged state plus what to re-check after a
// restart.
type wsState struct {
	name   string
	model  *model
	saved  []string
	checks []*op // read ops whose answers are fixed (re-run after recovery)
}

// runState is one set-up: planned in-process before its clock starts, then
// sent to the cluster.
type runState struct {
	cl       *cluster
	ws       []*wsState
	sessions samples // wall time of each design session, µs
	setupRec *recorder
	ops      []*op // every set-up op, in the order sent (the replay's prefix)
	fixes    []*pairFix
	fed      []*fedState
	// sessionOps holds the design session of each workspace in ws, and
	// loads the row loads that follow them all.
	sessionOps [][]*op
	loads      []*op
}

// addSession plans a set-up design session on a new workspace.
func (rs *runState) addSession(ws string, ops []*op) (*wsState, error) {
	st, err := planSession(ws, ops)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", ws, err)
	}
	rs.ws = append(rs.ws, st)
	rs.sessionOps = append(rs.sessionOps, ops)
	return st, nil
}

// send runs the planned set-up on the leader: each design session serially,
// timed into sessions, then the row loads.
func (rs *runState) send() error {
	for i, ops := range rs.sessionOps {
		d, err := runSession(rs.setupRec, rs.cl.lc, ops)
		if err != nil {
			return fmt.Errorf("session %s: %w", rs.ws[i].name, err)
		}
		rs.sessions.add(d)
		rs.ops = append(rs.ops, ops...)
	}
	if _, err := runSerial(rs.setupRec, rs.cl.lc, rs.loads); err != nil {
		return fmt.Errorf("rows: %w", err)
	}
	rs.ops = append(rs.ops, rs.loads...)
	return nil
}

type fedState struct {
	ws         *wsState
	structs    []structRows
	nextKey    map[string]int
	rng        *rand.Rand
	queries    []*op
	fullScans  []*op // unfiltered queries compared leader against follower
	initialRow int
}

// planSession builds the state of a session's workspace by applying its ops
// to a fresh model in-process. It runs before any of the ops is sent, so
// the oracle's work (parsing, closure, registry) stays out of every timed
// window.
func planSession(ws string, ops []*op) (*wsState, error) {
	st := &wsState{name: ws, model: newModel()}
	for _, o := range ops {
		if o.kind == opSave {
			st.saved = append(st.saved, o.integration)
		}
		if err := st.model.apply(o); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// runSession sends one planned design session serially and returns its wall
// time.
func runSession(rec *recorder, c *conn, ops []*op) (time.Duration, error) {
	t0 := time.Now()
	_, err := runSerial(rec, c, ops)
	return time.Since(t0), err
}

// verifyOps are the reads that must answer identically from the model after
// any restart: equivalence classes, both assertion listings, saved
// integrations.
func (st *wsState) verifyOps() []*op {
	classes := mustJSON(st.model.ws.Registry().Classes())
	objs := st.model.listing("w1", "w2", false)
	rels := st.model.listing("w1", "w2", true)
	names := mustJSON(st.saved)
	ops := []*op{
		{kind: opSchemas, method: "GET", path: wsPath(st.name, "/equivalences"), want: 200,
			check: newBodyCheck("equivalence classes", func(b []byte) error { return fieldEqual(b, "classes", classes) })},
		{kind: opAssertions, method: "GET", path: wsPath(st.name, "/assertions?schema1=w1&schema2=w2"), want: 200,
			check: newBodyCheck("object assertions", func(b []byte) error { return fieldEqual(b, "assertions", objs) })},
		{kind: opAssertions, method: "GET", path: wsPath(st.name, "/assertions?schema1=w1&schema2=w2&kind=relationships"), want: 200,
			check: newBodyCheck("relationship assertions", func(b []byte) error { return fieldEqual(b, "assertions", rels) })},
		{kind: opSchemas, method: "GET", path: wsPath(st.name, "/integrations"), want: 200,
			check: newBodyCheck("saved integrations", func(b []byte) error {
				var resp struct {
					Integrations []struct {
						Name string `json:"name"`
					} `json:"integrations"`
				}
				if err := json.Unmarshal(b, &resp); err != nil {
					return err
				}
				var got []string
				for _, i := range resp.Integrations {
					got = append(got, i.Name)
				}
				return jsonEqual(mustJSON(got), names)
			})},
	}
	return append(ops, st.checks...)
}

// --- tenant-mix ---

func tenantPair(sc scale, seed int64, i int) workload.Config {
	return workload.Config{Seed: seed*1000 + int64(i), Objects: sc.tenantObjects, AttrsPerObject: 3,
		Overlap: 0.5, Relationships: 2, NamingNoise: 0.2}
}

// tenantLimits arms admission control with 4x headroom over the offered
// per-workspace rate, so every request pays for keys, quotas and buckets
// and none is refused.
func tenantLimits(sc scale) []string {
	perWS := sc.tenantRate / float64(sc.tenants)
	return []string{"-max-schemas", "8", "-max-jobs", "32", "-ws-rate", strconv.FormatFloat(4*perWS, 'f', 1, 64)}
}

func planTenants(seed int64, fixes []*pairFix) (*runState, error) {
	rs := &runState{setupRec: &recorder{}, fixes: fixes}
	for i, f := range fixes {
		ws := fmt.Sprintf("t%02d", i)
		ops, err := f.sessionOps(ws, rand.New(rand.NewSource(seed+int64(i))), setupOpts("tenant-mix"))
		if err != nil {
			return nil, err
		}
		if _, err := rs.addSession(ws, ops); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// tenantOps builds the steady-state stream: round-robin over tenants and
// over matrix, resemblance, schema list, assertion list and an equivalence
// re-declare. Every read answer is checked against the tenant's model.
func tenantOps(rs *runState, n int) []*op {
	fixes := rs.fixes
	per := make([][5]*op, len(rs.ws))
	for i, st := range rs.ws {
		m := st.model
		s1, s2 := m.ws.Schema("w1"), m.ws.Schema("w2")
		matrix := mustJSON(m.ws.Similarity().ObjectMatrix(s1, s2))
		pairs := mustJSON(m.ws.Similarity().RankObjects(s1, s2))
		listing := m.listing("w1", "w2", false)
		q := "?schema1=w1&schema2=w2"
		per[i] = [5]*op{
			{kind: opMatrix, ws: st.name, method: "GET", path: wsPath(st.name, "/matrix"+q), want: 200, s1: "w1", s2: "w2",
				check: newBodyCheck("matrix", func(b []byte) error { return fieldEqual(b, "matrix", matrix) })},
			{kind: opResemblance, ws: st.name, method: "GET", path: wsPath(st.name, "/resemblance"+q), want: 200, s1: "w1", s2: "w2",
				check: newBodyCheck("resemblance", func(b []byte) error { return fieldEqual(b, "pairs", pairs) })},
			{kind: opSchemas, ws: st.name, method: "GET", path: wsPath(st.name, "/schemas"), want: 200,
				check: newBodyCheck("schema list", checkSchemaNames("w1", "w2"))},
			{kind: opAssertions, ws: st.name, method: "GET", path: wsPath(st.name, "/assertions"+q), want: 200, s1: "w1", s2: "w2",
				check: newBodyCheck("assertions", func(b []byte) error { return fieldEqual(b, "assertions", listing) })},
			nil,
		}
		st.checks = per[i][:4]
	}
	ops := make([]*op, n)
	for k := range ops {
		t := k % len(rs.ws)
		kind := (k / len(rs.ws)) % 5
		if kind < 4 {
			ops[k] = per[t][kind]
			continue
		}
		d := fixes[t].declares[(k/(5*len(rs.ws)))%len(fixes[t].declares)]
		r1, r2 := d[0].Object+"."+d[0].Attr, d[1].Object+"."+d[1].Attr
		ops[k] = &op{kind: opDeclare, ws: rs.ws[t].name, method: "POST", path: wsPath(rs.ws[t].name, "/equivalences"), want: 201,
			s1: d[0].Schema, ref1: r1, s2: d[1].Schema, ref2: r2,
			body: mustJSON(map[string]string{"schema1": d[0].Schema, "attr1": r1, "schema2": d[1].Schema, "attr2": r2})}
	}
	return ops
}

func checkSchemaNames(want ...string) func([]byte) error {
	return func(b []byte) error {
		var resp struct {
			Schemas []struct {
				Name string `json:"name"`
			} `json:"schemas"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return err
		}
		var got []string
		for _, s := range resp.Schemas {
			got = append(got, s.Name)
		}
		return jsonEqual(mustJSON(got), mustJSON(want))
	}
}

// --- federated-query ---

func fedPair(sc scale, seed int64, i int) workload.Config {
	return workload.Config{Seed: seed*1000 + 500 + int64(i), Objects: sc.fedObjects, AttrsPerObject: 4,
		Overlap: 0.5, Relationships: 4, NamingNoise: 0.2}
}

// planFed plans each federation workspace: a design session that saves the
// integration "fed", then initial rows into every entity set of both
// components and of the integrated schema, mirrored into oracle stores
// that answer every query up front.
func planFed(sc scale, seed int64, fixes []*pairFix) (*runState, error) {
	rs := &runState{setupRec: &recorder{}, fixes: fixes}
	for i, f := range fixes {
		ws := fmt.Sprintf("f%d", i)
		ops, err := f.sessionOps(ws, rand.New(rand.NewSource(seed+int64(i))), setupOpts("federated-query"))
		if err != nil {
			return nil, err
		}
		st, err := rs.addSession(ws, ops)
		if err != nil {
			return nil, err
		}

		fs := &fedState{ws: st, nextKey: map[string]int{}, rng: rand.New(rand.NewSource(seed*7 + int64(i)))}
		stores := map[string]*instance.Store{}
		for _, s := range []*ecr.Schema{f.w.S1, f.w.S2, f.oracle.Schema} {
			is, err := instance.NewStore(s.Clone())
			if err != nil {
				return nil, err
			}
			stores[s.Name] = is
			fs.structs = append(fs.structs, rowStructures(s)...)
		}
		for _, sr := range fs.structs {
			rows := makeRows(fs.rng, sr, initialBase, sc.fedRows, initialBase, initialSpan)
			if err := stores[sr.schema].InsertAll(sr.structure, rows); err != nil {
				return nil, err
			}
			fs.nextKey[sr.schema+"/"+sr.structure] = loadedBase
			fs.initialRow += len(rows)
			rs.loads = append(rs.loads, rowsOp(ws, sr, rows))
		}
		fed, err := instance.NewFederation(f.oracle.Schema, f.oracle.Mappings, map[string]*instance.Store{
			f.w.S1.Name: stores[f.w.S1.Name], f.w.S2.Name: stores[f.w.S2.Name]})
		if err != nil {
			return nil, err
		}
		view, err := instance.NewViewExecutor(stores[f.oracle.Schema.Name], f.oracle.Mappings)
		if err != nil {
			return nil, err
		}
		for _, q := range fedQueries(rand.New(rand.NewSource(seed*13+int64(i))), f, sc.fedQueries) {
			o, err := queryOp(ws, f, q, fed, view)
			if err != nil {
				return nil, err
			}
			fs.queries = append(fs.queries, o)
		}
		st.checks = fs.queries
		for _, q := range fedQueries(rand.New(rand.NewSource(seed*17+int64(i))), f, 2*sc.fedQueries) {
			q.Where = nil
			full, err := queryOp(ws, f, q, nil, nil)
			if err != nil {
				return nil, err
			}
			fs.fullScans = append(fs.fullScans, full)
		}
		rs.fed = append(rs.fed, fs)
	}
	return rs, nil
}

func rowsOp(ws string, sr structRows, rows []instance.Row) *op {
	return &op{kind: opRows, ws: ws, method: "POST", path: wsPath(ws, "/rows"), want: 201,
		s1: sr.schema, structure: sr.structure, rows: rows,
		body: mustJSON(map[string]any{"schema": sr.schema, "structure": sr.structure, "rows": rows})}
}

// queryOp builds a POST /query for q through the saved integration. With
// oracles it checks the executed rows against them; without, it checks
// only that the query executed.
func queryOp(ws string, f *pairFix, q mapping.Query, fed *instance.Federation, view *instance.ViewExecutor) (*op, error) {
	dir := "view_to_integrated"
	if q.Schema == f.oracle.Schema.Name {
		dir = "integrated_to_components"
	}
	where := []map[string]string{}
	for _, p := range q.Where {
		where = append(where, map[string]string{"attr": p.Attr, "op": p.Op, "value": p.Value})
	}
	o := &op{kind: opQuery, ws: ws, method: "POST", path: wsPath(ws, "/query"), want: 200,
		integration: "fed", direction: dir, query: q,
		body: mustJSON(map[string]any{"integration": "fed", "direction": dir,
			"query": map[string]any{"schema": q.Schema, "object": q.Object, "project": q.Project, "where": where}})}
	var want []instance.Row
	oracle := view != nil
	if dir == "integrated_to_components" {
		oracle = fed != nil
	}
	if oracle {
		var err error
		if dir == "integrated_to_components" {
			want, _, err = fed.Query(q)
		} else {
			want, err = view.Query(q)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle query %s: %w", q, err)
		}
	}
	wantRows := []byte("null")
	if len(want) > 0 {
		wantRows = mustJSON(want)
	}
	o.check = newBodyCheck("query "+q.String(), func(b []byte) error {
		var resp struct {
			Executed bool            `json:"executed"`
			Rows     json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return err
		}
		if !resp.Executed {
			return fmt.Errorf("not executed")
		}
		if !oracle {
			return nil
		}
		if len(resp.Rows) == 0 {
			resp.Rows = []byte("null")
		}
		return jsonEqual(resp.Rows, wantRows)
	})
	return o, nil
}

// fedOps builds the steady-state stream: nine queries to one row batch,
// queries alternating between leader and follower, spread over the
// workspaces. route(i) is 0 for the leader and 1 for the follower.
func fedOps(sc scale, rs *runState, n int) ([]*op, func(int) int) {
	ops := make([]*op, n)
	follower := make([]bool, n)
	for i := range ops {
		fs := rs.fed[i%len(rs.fed)]
		if i%10 == 9 {
			sr := fs.structs[fs.rng.Intn(len(fs.structs))]
			k := sr.schema + "/" + sr.structure
			rows := makeRows(fs.rng, sr, fs.nextKey[k], sc.fedBatch, loadedBase, initialSpan)
			fs.nextKey[k] += sc.fedBatch
			ops[i] = rowsOp(fs.ws.name, sr, rows)
			continue
		}
		ops[i] = fs.queries[fs.rng.Intn(len(fs.queries))]
		follower[i] = i%2 == 1
	}
	return ops, func(i int) int {
		if follower[i] {
			return 1
		}
		return 0
	}
}
