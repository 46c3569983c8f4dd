package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/integrate"
	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/session"
)

// --- /metrics deltas ---

type histSnap struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sumSeconds"`
}

// metricsSnap is the part of a server's /metrics the benchmark reads.
type metricsSnap struct {
	Admission struct {
		Auth  uint64 `json:"auth_failures_total"`
		Rate  uint64 `json:"rate_limited_total"`
		Quota uint64 `json:"quota_rejections_total"`
		Body  uint64 `json:"body_too_large_total"`
	} `json:"admission"`
	Journal struct {
		Appends     uint64   `json:"journal_appends_total"`
		Compactions uint64   `json:"compactions_total"`
		Fsync       histSnap `json:"journal_fsync_seconds"`
	} `json:"journal"`
	Replication struct {
		RecordsApplied   uint64 `json:"records_applied"`
		SnapshotsFetched uint64 `json:"snapshots_fetched"`
		SyncErrors       uint64 `json:"sync_errors"`
	} `json:"replication"`
}

func scrapeBoth(cl *cluster) (leader, follower *metricsSnap, err error) {
	leader, follower = &metricsSnap{}, &metricsSnap{}
	if err := cl.lc.getJSON("/metrics", true, leader); err != nil {
		return nil, nil, err
	}
	if err := cl.fc.getJSON("/metrics", true, follower); err != nil {
		return nil, nil, err
	}
	return leader, follower, nil
}

// procWriteBytes reads the bytes a process caused to be written to storage
// (/proc/<pid>/io write_bytes); -1 when the kernel does not report it.
func procWriteBytes(p *serverProc) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/io", p.cmd.Process.Pid))
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// --- spans ---

// span is one timed call into a layer. Parent is the index of the span the
// call ran under (-1 for none); Op numbers the replayed op it served.
// Replayed marks a child span the benchmark timed by calling the layer
// itself on identical inputs right after its parent, because the parent
// calls it internally where no span can reach.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Replayed bool   `json:"replayed,omitempty"`
}

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	op    int
	cur   int // innermost open span, -1 for none
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Op: t.op})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

func (t *tracer) rename(i int, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// replayed times fn as a child of span parent.
func (t *tracer) replayed(name string, parent int, fn func()) {
	if !t.on {
		fn()
		return
	}
	saved := t.cur
	t.cur = parent
	i := t.begin(name)
	fn()
	t.end(i)
	t.spans[i].Replayed = true
	t.cur = saved
}

// --- the replay ---

// replayWS is one workspace of the replay: the server's Store journaling
// into a journal the benchmark opened, and the model as its shadow.
type replayWS struct {
	st       *server.Store
	j        *journal.Journal
	model    *model
	lastGen  uint64
	anyInteg bool
	appends  int
	inst     map[string]*instance.Store // shadow instance stores by schema name
}

// replayer drives an op stream through the public entry points.
type replayer struct {
	tr  *tracer
	dir string
	ws  map[string]*replayWS
	// snapshotEvery mirrors the servers' -snapshot-every: the replay
	// compacts a workspace's journal after that many appends.
	snapshotEvery int
	counts        struct {
		parseBytes          int64
		subqueries, queries int
		examined, returned  int
		loadedRows          int
		simHits, simMisses  uint64
		cloHits, cloMisses  uint64
		derived             uint64
	}
}

func newReplayer(dir string, traced bool) *replayer {
	return &replayer{tr: newTracer(traced), dir: dir, ws: map[string]*replayWS{}}
}

func (r *replayer) close() {
	for _, w := range r.ws {
		_ = w.j.Close() // the replay's journals are scratch
	}
}

func (r *replayer) run(ops []*op) error {
	for i, o := range ops {
		r.tr.op = i
		w := r.ws[o.ws]
		var sh, sm, ch, cm, d uint64
		if w != nil {
			sh, sm = w.st.SimilarityCacheStats()
			ch, cm, d, _ = w.st.ClosureStats()
		}
		if err := r.do(o); err != nil {
			return fmt.Errorf("replay op %d (%s %s): %w", i, o.kind, o.ws, err)
		}
		if w != nil {
			sh1, sm1 := w.st.SimilarityCacheStats()
			ch1, cm1, d1, _ := w.st.ClosureStats()
			c := &r.counts
			c.simHits, c.simMisses = c.simHits+sh1-sh, c.simMisses+sm1-sm
			c.cloHits, c.cloMisses, c.derived = c.cloHits+ch1-ch, c.cloMisses+cm1-cm, c.derived+d1-d
		}
	}
	return nil
}

func (r *replayer) do(o *op) error {
	tr := r.tr
	if o.kind == opCreateWS {
		j, err := journal.Open(filepath.Join(r.dir, o.ws), journal.Options{Sync: journal.SyncAlways})
		if err != nil {
			return err
		}
		w := &replayWS{st: server.NewStore(), j: j, model: newModel(), inst: map[string]*instance.Store{}}
		w.st.SetPersist(func(op string, v any) error {
			i := tr.begin("journal.Append")
			_, err := j.Append(op, v)
			tr.end(i)
			w.appends++
			return err
		})
		r.ws[o.ws] = w
		return nil
	}
	w := r.ws[o.ws]
	if w == nil {
		return fmt.Errorf("unknown workspace")
	}
	if o.kind == opDeleteWS {
		delete(r.ws, o.ws)
		return w.j.Close()
	}
	var err error
	switch o.kind {
	case opUpload:
		var schemas []*ecr.Schema
		i := tr.begin("translate.Parse")
		schemas, err = parseUpload(o)
		tr.end(i)
		r.counts.parseBytes += int64(len(o.src))
		if err == nil {
			i = tr.begin("server.Store.AddSchemas")
			_, err = w.st.AddSchemas(schemas)
			tr.end(i)
		}
	case opDeclare:
		i := tr.begin("server.Store.DeclareEquivalence")
		err = w.st.DeclareEquivalence(o.s1, o.ref1, o.s2, o.ref2)
		tr.end(i)
	case opMatrix, opResemblance:
		_, miss0 := w.st.SimilarityCacheStats()
		i := tr.begin("server.Store.Matrix")
		if o.kind == opMatrix {
			_, err = w.st.Matrix(o.s1, o.s2, false)
		} else {
			tr.rename(i, "server.Store.RankedPairs")
			_, err = w.st.RankedPairs(o.s1, o.s2, false)
		}
		tr.end(i)
		if _, miss1 := w.st.SimilarityCacheStats(); err == nil && miss1 > miss0 {
			s1, s2 := w.model.ws.Schema(o.s1), w.model.ws.Schema(o.s2)
			if o.kind == opMatrix {
				tr.replayed("similarity.Engine.ObjectMatrix", i, func() { w.model.ws.Similarity().ObjectMatrix(s1, s2) })
			} else {
				tr.replayed("similarity.Engine.RankObjects", i, func() { w.model.ws.Similarity().RankObjects(s1, s2) })
			}
		}
	case opSchemas:
		i := tr.begin("server.Store.Schemas")
		w.st.Schemas()
		tr.end(i)
	case opAssertions:
		i := tr.begin("server.Store.Assertions")
		_, err = w.st.Assertions(o.s1, o.s2, o.rel)
		tr.end(i)
	case opExplain:
		i := tr.begin("server.Store.ExplainAssertion")
		_, _, err = w.st.ExplainAssertion(o.s1, o.ref1, o.s2, o.ref2, o.rel)
		tr.end(i)
	case opAssert, opRetract:
		err = r.assertion(w, o)
	case opIntegrate, opSave:
		err = r.integrate(w, o)
	case opRows:
		err = r.rows(w, o)
	case opQuery:
		err = r.query(w, o)
	}
	if err != nil {
		return err
	}
	if o.kind != opAssert && o.kind != opRetract {
		if err := w.model.apply(o); err != nil {
			return err
		}
	}
	if w.appends >= r.snapshotEvery {
		w.appends = 0
		var state []byte
		i := tr.begin("session.Marshal")
		state, err = session.Marshal(w.model.ws)
		tr.end(i)
		if err != nil {
			return err
		}
		i = tr.begin("journal.Compact")
		err = w.j.Compact(state, w.j.Seq())
		tr.end(i)
	}
	return err
}

func (r *replayer) assertion(w *replayWS, o *op) error {
	tr := r.tr
	a, b := assertion.ObjKey{Schema: o.s1, Object: o.ref1}, assertion.ObjKey{Schema: o.s2, Object: o.ref2}
	eng := w.model.engine(o)
	if o.kind == opAssert {
		i := tr.begin("server.Store.Assert")
		_, _, err := w.st.Assert(o.s1, o.ref1, o.code, o.s2, o.ref2, o.rel)
		tr.end(i)
		if err != nil {
			return err
		}
		kind, err := assertion.KindFromCode(o.code)
		if err != nil {
			return err
		}
		var res assertion.CloseResult
		tr.replayed("assertion.Engine.AssertAndClose", i, func() { res = eng.AssertAndClose(a, b, kind) })
		if !res.Consistent() {
			return fmt.Errorf("assertion conflict")
		}
		return nil
	}
	i := tr.begin("server.Store.Retract")
	_, err := w.st.Retract(o.s1, o.ref1, o.s2, o.ref2, o.rel)
	tr.end(i)
	if err != nil {
		return err
	}
	tr.replayed("assertion.Engine.Retract", i, func() { _, err = eng.Retract(a, b) })
	return err
}

// integrate replays an integration; when the Store's generation moved since
// its last integration it recomputed, so integrate.Integrate is timed on
// the shadow's inputs.
func (r *replayer) integrate(w *replayWS, o *op) error {
	tr := r.tr
	gen := w.st.Generation()
	recomputed := !w.anyInteg || gen != w.lastGen
	w.anyInteg, w.lastGen = true, gen
	var err error
	i := tr.begin("server.Store.Integrate")
	if o.kind == opSave {
		tr.rename(i, "server.Store.SaveIntegration")
		_, err = w.st.SaveIntegration(o.integration, o.s1, o.s2)
	} else {
		_, err = w.st.Integrate(o.s1, o.s2)
	}
	tr.end(i)
	if err != nil || !recomputed {
		return err
	}
	m := w.model.ws
	in := integrate.Input{
		S1: m.Schema(o.s1), S2: m.Schema(o.s2),
		Registry:      m.Registry().Clone(),
		Objects:       m.ObjectAssertions(o.s1, o.s2).Clone(),
		Relationships: m.RelationshipAssertions(o.s1, o.s2).Clone(),
	}
	tr.replayed("integrate.Integrate", i, func() { _, err = integrate.Integrate(in) })
	return err
}

func (r *replayer) instanceStore(w *replayWS, name string) (*instance.Store, error) {
	if is := w.inst[name]; is != nil {
		return is, nil
	}
	s := w.model.ws.Schema(name)
	if s == nil {
		for _, info := range w.st.Integrations() {
			if info.Schema == name {
				var err error
				if s, _, err = w.st.Integration(info.Name); err != nil {
					return nil, err
				}
			}
		}
	}
	if s == nil {
		return nil, fmt.Errorf("no schema %q", name)
	}
	is, err := instance.NewStore(s.Clone())
	if err != nil {
		return nil, err
	}
	w.inst[name] = is
	return is, nil
}

func (r *replayer) rows(w *replayWS, o *op) error {
	tr := r.tr
	i := tr.begin("server.Store.LoadRows")
	_, err := w.st.LoadRows(o.s1, o.structure, o.rows)
	tr.end(i)
	if err != nil {
		return err
	}
	is, err := r.instanceStore(w, o.s1)
	if err != nil {
		return err
	}
	tr.replayed("instance.Store.InsertAll", i, func() { err = is.InsertAll(o.structure, o.rows) })
	r.counts.loadedRows += len(o.rows)
	return err
}

// query replays one federated query: the Store's TranslateQuery, then the
// mapping translation and the instance execution it performs, timed on the
// shadow stores.
func (r *replayer) query(w *replayWS, o *op) error {
	tr := r.tr
	i := tr.begin("server.Store.TranslateQuery")
	res, err := w.st.TranslateQuery(o.integration, o.query, o.direction)
	tr.end(i)
	if err != nil {
		return err
	}
	schema, table, err := w.st.Integration(o.integration)
	if err != nil {
		return err
	}
	r.counts.queries++
	var rows []instance.Row
	if o.direction == server.DirViewToIntegrated {
		var logical mapping.Query
		tr.replayed("mapping.ViewToIntegrated", i, func() { logical, err = mapping.ViewToIntegrated(o.query, table) })
		if err != nil {
			return err
		}
		r.counts.subqueries++
		is, err := r.instanceStore(w, table.Integrated)
		if err != nil {
			return err
		}
		r.counts.examined += scanned(is, logical.Object)
		view, err := instance.NewViewExecutor(is, table)
		if err != nil {
			return err
		}
		tr.replayed("instance.ViewExecutor.Query", i, func() { rows, err = view.Query(o.query) })
	} else {
		var subs []mapping.Query
		tr.replayed("mapping.IntegratedToComponents", i, func() { subs, _, err = mapping.IntegratedToComponents(o.query, table, schema) })
		if err != nil {
			return err
		}
		r.counts.subqueries += len(subs)
		comps := map[string]*instance.Store{}
		for _, name := range table.Components {
			if comps[name], err = r.instanceStore(w, name); err != nil {
				return err
			}
		}
		for _, sub := range subs {
			r.counts.examined += scanned(comps[sub.Schema], sub.Object)
		}
		fed, err := instance.NewFederation(schema, table, comps)
		if err != nil {
			return err
		}
		tr.replayed("instance.Federation.Query", i, func() { rows, _, err = fed.Query(o.query) })
	}
	if err != nil {
		return err
	}
	r.counts.returned += len(rows)
	if len(rows) != len(res.Rows) {
		return fmt.Errorf("shadow answered %d rows, the store %d", len(rows), len(res.Rows))
	}
	return nil
}

// scanned counts the rows a selection on structure examines: its own and
// every IS-A descendant's.
func scanned(is *instance.Store, structure string) int {
	n := 0
	seen := map[string]bool{}
	queue := []string{structure}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		n += is.Count(cur)
		queue = append(queue, is.Schema().Children(cur)...)
	}
	return n
}

// replicate replays the follower's fetch path against the live leader: per
// workspace, fetch the snapshot, seed a replica journal with it, then fetch
// the record tail repeatedly and append its frames verbatim.
func (r *replayer) replicate(leaderURL string, keys bool, rounds int) error {
	hc := newConn(leaderURL, keys).hc
	if keys {
		hc.Transport = authed{next: hc.Transport}
	}
	defer hc.CloseIdleConnections()
	c := replication.NewClient(leaderURL, hc)
	ctx := context.Background()
	list, err := c.Workspaces(ctx)
	if err != nil {
		return err
	}
	tr := r.tr
	for _, ws := range list {
		snap, err := c.Snapshot(ctx, ws.Name)
		if err != nil {
			return err
		}
		for k := 0; k < rounds; k++ {
			j, err := journal.Open(filepath.Join(r.dir, "replica", fmt.Sprintf("%s-%d", ws.Name, k)), journal.Options{Sync: journal.SyncAlways})
			if err != nil {
				return err
			}
			if err := j.ResetTo(snap.State, snap.Seq); err != nil {
				j.Close()
				return err
			}
			var fr replication.Frames
			i := tr.begin("replication.Client.Records")
			fr, err = c.Records(ctx, ws.Name, snap.Seq, 0)
			tr.end(i)
			for err == nil && len(fr.Lines) > 0 {
				nl := bytes.IndexByte(fr.Lines, '\n')
				i := tr.begin("journal.AppendFrame")
				_, err = j.AppendFrame(fr.Lines[:nl+1])
				tr.end(i)
				fr.Lines = fr.Lines[nl+1:]
			}
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("replicate %s: %w", ws.Name, err)
			}
		}
	}
	return nil
}

// --- per-layer metrics ---

// layerStats summarizes the spans of one name.
type layerStats struct {
	total samples // duration, µs
	self  samples // duration minus child spans, µs
}

func summarize(spans []span) map[string]*layerStats {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	out := map[string]*layerStats{}
	for i, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := float64(s.End-s.Start) / 1e3
		ls.total = append(ls.total, d)
		ls.self = append(ls.self, d-child[i])
	}
	return out
}

// merged joins the stats of every span whose name has one of the prefixes.
func merged(stats map[string]*layerStats, prefixes ...string) *layerStats {
	out := &layerStats{}
	for name, ls := range stats {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out.total = append(out.total, ls.total...)
				out.self = append(out.self, ls.self...)
				break
			}
		}
	}
	return out
}

// httpSelfTimes pairs each measured op's HTTP latency with the Store spans
// the replay recorded for that same op and returns the differences: the
// time the op spent outside the Store. Integrations are left out, and so
// are ops with no Store call (workspace create and delete).
func httpSelfTimes(spans []span, ops []*op, opLat map[int]float64) samples {
	store := map[int]float64{}
	for _, s := range spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "server.Store.") {
			store[s.Op] += float64(s.End-s.Start) / 1e3
		}
	}
	var out samples
	for k, lat := range opLat {
		if sp, ok := store[k]; ok && ops[k].kind != opIntegrate {
			out = append(out, lat-sp)
		}
	}
	return out
}

// traced finishes a --trace 1 run: the measured HTTP phase is done; replay
// its op stream untraced and traced, write the spans, and report every
// per-layer metric.
func (b *benchRun) traced(before, after, fBefore, fAfter *metricsSnap, written int64) error {
	// Replay untraced, traced, untraced: the overhead compares the traced
	// pass with the mean of the two untraced passes around it.
	pass := 0
	wall := func(traced bool) (*replayer, time.Duration, error) {
		pass++
		r := newReplayer(filepath.Join(b.root, "replay", strconv.Itoa(pass)), traced)
		r.snapshotEvery = b.snapshotEvery()
		defer r.close()
		t0 := time.Now()
		err := r.run(b.replayOps)
		return r, time.Since(t0), err
	}
	_, plain1, err := wall(false)
	if err != nil {
		return err
	}
	r, tracedWall, err := wall(true)
	if err != nil {
		return err
	}
	_, plain2, err := wall(false)
	if err != nil {
		return err
	}
	plain := (plain1 + plain2) / 2
	if err := r.replicate(b.rs.cl.leader.url(), b.keys(), 8); err != nil {
		return err
	}
	if err := b.writeSpans(r.tr.spans); err != nil {
		return err
	}
	st := summarize(r.tr.spans)
	m := b.measured
	rep := b.rep
	ops := float64(m.attempted)

	store := merged(st, "server.Store.")
	httpSelf := httpSelfTimes(r.tr.spans, b.replayOps, b.opLat)
	rep.add("server.http.self_us_p50", httpSelf.median(), "us", len(httpSelf))
	rep.add("server.http.resp_bytes_per_op", ratio(float64(m.respBytes), ops), "bytes", m.attempted)
	rejected := (after.Admission.Auth + after.Admission.Rate + after.Admission.Quota + after.Admission.Body) -
		(before.Admission.Auth + before.Admission.Rate + before.Admission.Quota + before.Admission.Body)
	rep.add("server.admission.rejected_per_op", ratio(float64(rejected), ops), "ratio", m.attempted)
	rep.add("server.store.self_us_p50", store.self.median(), "us", len(store.self))
	rep.add("server.store.self_us_p99", store.self.quantile(0.99), "us", len(store.self))
	// Cache counters come from the replayed Stores, which serve the same op
	// stream: the server's /metrics sums only live workspaces, and
	// design-session deletes its old ones.
	c := r.counts
	rep.add("server.store.sim_cache_hit_ratio", ratio(float64(c.simHits), float64(c.simHits+c.simMisses)), "ratio", int(c.simHits+c.simMisses))
	rep.add("server.store.closure_cache_hit_ratio", ratio(float64(c.cloHits), float64(c.cloHits+c.cloMisses)), "ratio", int(c.cloHits+c.cloMisses))

	sim := merged(st, "similarity.")
	rep.add("similarity.calls", float64(len(sim.total)), "count", len(sim.total))
	rep.add("similarity.busy_ms", sim.total.sum()/1e3, "ms", len(sim.total))
	rep.add("similarity.call_us_p50", sim.total.median(), "us", len(sim.total))
	as := merged(st, "assertion.")
	rep.add("assertion.ops", float64(len(as.total)), "count", len(as.total))
	rep.add("assertion.op_us_p99", as.total.quantile(0.99), "us", len(as.total))
	asserts := 0
	for _, o := range b.replayOps {
		if o.kind == opAssert {
			asserts++
		}
	}
	rep.add("assertion.derived_per_assert", ratio(float64(c.derived), float64(asserts)), "ratio", asserts)
	in := merged(st, "integrate.")
	rep.add("integrate.calls", float64(len(in.total)), "count", len(in.total))
	rep.add("integrate.call_ms_p50", in.total.median()/1e3, "ms", len(in.total))

	ja := merged(st, "journal.Append")
	rep.add("journal.appends", float64(after.Journal.Appends-before.Journal.Appends), "count", int(after.Journal.Appends-before.Journal.Appends))
	rep.add("journal.append_us_p50", ja.total.median(), "us", len(ja.total))
	rep.add("journal.append_us_p99", ja.total.quantile(0.99), "us", len(ja.total))
	fs := after.Journal.Fsync.Count - before.Journal.Fsync.Count
	rep.add("journal.fsync_us_mean", ratio((after.Journal.Fsync.Sum-before.Journal.Fsync.Sum)*1e6, float64(fs)), "us", int(fs))
	amp := 0.0
	if written >= 0 {
		amp = ratio(float64(written), float64(m.writeBytes))
	}
	rep.add("journal.write_amp", amp, "ratio", int(m.writeBytes))
	rep.add("journal.compactions", float64(after.Journal.Compactions-before.Journal.Compactions), "count", 1)
	sm := merged(st, "session.Marshal")
	rep.add("session.marshal_ms", sm.total.median()/1e3, "ms", len(sm.total))

	tp := merged(st, "translate.Parse")
	rep.add("translate.parse_us_p50", tp.total.median(), "us", len(tp.total))
	rep.add("translate.mb_per_s", ratio(float64(r.counts.parseBytes)/1e6, tp.total.sum()/1e6), "MB/s", len(tp.total))

	mp := merged(st, "mapping.")
	rep.add("mapping.translate_us_p50", mp.total.median(), "us", len(mp.total))
	rep.add("mapping.subqueries_per_query", ratio(float64(r.counts.subqueries), float64(r.counts.queries)), "ratio", r.counts.queries)
	iq := merged(st, "instance.Federation.Query", "instance.ViewExecutor.Query")
	rep.add("instance.query_us_p50", iq.total.median(), "us", len(iq.total))
	rep.add("instance.rows_examined_per_row_returned", ratio(float64(r.counts.examined), float64(r.counts.returned)), "ratio", r.counts.returned)
	il := merged(st, "instance.Store.InsertAll")
	rep.add("instance.load_us_per_row", ratio(il.total.sum(), float64(r.counts.loadedRows)), "us", r.counts.loadedRows)

	rep.add("replication.records_applied", float64(fAfter.Replication.RecordsApplied-fBefore.Replication.RecordsApplied), "count", 1)
	rf := merged(st, "replication.Client.Records")
	rep.add("replication.fetch_us_p50", rf.total.median(), "us", len(rf.total))
	rep.add("replication.snapshots_fetched", float64(fAfter.Replication.SnapshotsFetched-fBefore.Replication.SnapshotsFetched), "count", 1)
	rep.add("replication.sync_errors", float64(fAfter.Replication.SyncErrors-fBefore.Replication.SyncErrors), "count", 1)

	rep.add("loadgen.late_us_p99", b.late.quantile(0.99), "us", len(b.late))
	rep.add("trace.overhead_frac", ratio(float64(tracedWall-plain), float64(plain)), "ratio", len(r.tr.spans))
	return nil
}

// writeSpans writes the traced replay's spans, with the seed, as JSON to
// .bench_build/trace/<workload>.json.
func (b *benchRun) writeSpans(spans []span) error {
	dir := filepath.Join(filepath.Dir(b.o.root), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.o.workload+".json") // the latest run's, so the directory stays small
	data, err := json.Marshal(map[string]any{"workload": b.o.workload, "seed": b.o.seed, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.rep.out, "spans: %d written to %s\n", len(spans), path)
	return nil
}
