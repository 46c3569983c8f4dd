package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/replication"
)

// openFollower opens a durable follower of the leader at base, backing off
// briefly enough after an error for tests to converge quickly.
func openFollower(t testing.TB, dir, base string) *Server {
	t.Helper()
	return openFollowerPolling(t, dir, base, 3*time.Millisecond)
}

// openFollowerPolling opens a durable follower with the given poll interval.
func openFollowerPolling(t testing.TB, dir, base string, poll time.Duration) *Server {
	t.Helper()
	srv, _, err := Open(
		Config{Workers: 2, QueueCapacity: 16, Follow: &FollowerConfig{Leader: base, PollInterval: poll}},
		DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// journalBytes reads a workspace's raw journal file.
func journalBytes(t testing.TB, dir, ws string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, ws, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// schemasOn lists the schema names a server's API reports for the default
// workspace.
func schemasOn(t testing.TB, client *http.Client, base string) []string {
	t.Helper()
	var resp struct {
		Schemas []SchemaStats `json:"schemas"`
	}
	if status := doJSON(t, client, "GET", base+"/v1/schemas", nil, &resp); status != http.StatusOK {
		t.Fatalf("list schemas: status %d", status)
	}
	names := make([]string, 0, len(resp.Schemas))
	for _, s := range resp.Schemas {
		names = append(names, s.Name)
	}
	return names
}

// TestFollowerReplicatesReadsAndGatesWrites is the replication acceptance
// path: a follower bootstraps from a live leader, serves every read —
// including a full integration run — from its replica, refuses mutations
// with a redirect to the leader, and its journal converges byte-identical
// to the leader's.
func TestFollowerReplicatesReadsAndGatesWrites(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	want := goldenPaperDDL(t)

	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	client := fs.Client()

	waitFor(t, 10*time.Second, func() bool {
		// A frame is journaled before it is applied: equal journals alone
		// can still leave the last record out of the follower's store.
		return bytes.Equal(journalBytes(t, dirL, "default"), journalBytes(t, dirF, "default")) &&
			caughtUp(leader, follower)
	}, "journals to converge")

	// The replicated state answers reads, including compute-heavy ones.
	if got := schemasOn(t, client, fs.URL); len(got) != 2 {
		t.Fatalf("follower schemas = %v", got)
	}
	var res IntegrationResult
	if status := doJSON(t, client, "POST", fs.URL+"/v1/integrate",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &res); status != http.StatusOK {
		t.Fatalf("follower integrate status = %d", status)
	}
	if res.DDL != want {
		t.Fatalf("follower integration diverged from golden DDL:\n%s", res.DDL)
	}

	// Mutations are refused with 421 and a Location pointing at the leader.
	for _, m := range []struct{ method, path string }{
		{"POST", "/v1/schemas"},
		{"DELETE", "/v1/schemas/sc1"},
		{"POST", "/v1/equivalences"},
		{"POST", "/v1/assertions"},
		{"POST", "/v1/jobs"},
		{"POST", "/v1/workspaces"},
	} {
		req, err := http.NewRequest(m.method, fs.URL+m.path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on follower: status %d, want 421", m.method, m.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != ts.URL+m.path {
			t.Fatalf("%s %s Location = %q, want %q", m.method, m.path, loc, ts.URL+m.path)
		}
	}

	// /healthz reports the role and lag; max-lag gates a caught-up follower in.
	var health struct {
		Role        string                `json:"role"`
		Leader      string                `json:"leader"`
		Replication map[string]ReplicaLag `json:"replication"`
	}
	if status := doJSON(t, client, "GET", fs.URL+"/healthz?max-lag=0", nil, &health); status != http.StatusOK {
		t.Fatalf("follower healthz status = %d", status)
	}
	if health.Role != "follower" || health.Leader != ts.URL {
		t.Fatalf("follower healthz = %+v", health)
	}
	if lag := health.Replication["default"]; lag.LagRecords != 0 || lag.AppliedSeq == 0 {
		t.Fatalf("follower lag = %+v", lag)
	}
	if status := doJSON(t, ts.Client(), "GET", ts.URL+"/healthz", nil, &health); status != http.StatusOK || health.Role != "leader" {
		t.Fatalf("leader healthz role = %q (status %d)", health.Role, status)
	}

	// /metrics carries the replication section.
	var metrics MetricsSnapshot
	if status := doJSON(t, client, "GET", fs.URL+"/metrics", nil, &metrics); status != http.StatusOK {
		t.Fatalf("follower metrics status = %d", status)
	}
	repl := metrics.Replication
	if repl == nil || repl.Role != "follower" || repl.RecordsApplied == 0 {
		t.Fatalf("follower replication metrics = %+v", repl)
	}
	if lag := repl.Workspaces["default"]; lag.LagRecords != 0 || lag.LagBytes != 0 {
		t.Fatalf("follower metrics lag = %+v", lag)
	}
}

// TestFollowerMirrorsWorkspacesAndJobs checks the control-plane mirror: a
// workspace created on the leader appears on the follower (with its job
// table, applied from the stream rather than executed), and a workspace
// deleted on the leader disappears.
func TestFollowerMirrorsWorkspacesAndJobs(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()

	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/workspaces",
		workspaceRequest{Name: "team-a"}, nil); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	uploadPaperSchemasAt(t, ts.Client(), ts.URL+"/v1/workspaces/team-a")
	var job Job
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/workspaces/team-a/jobs",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &job); status != http.StatusAccepted {
		t.Fatalf("submit job: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		var got Job
		status := doJSON(t, fs.Client(), "GET", fs.URL+"/v1/workspaces/team-a/jobs/"+job.ID, nil, &got)
		return status == http.StatusOK && got.State.Terminal() && got.Result != nil
	}, "job to replicate onto follower")

	// The follower applied the job's lifecycle; it never executed it.
	if depth := mustWorkspace(t, follower, "team-a").queue.Depth(); depth != 0 {
		t.Fatalf("follower queue depth = %d, want 0", depth)
	}

	if status := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/workspaces/team-a", nil, nil); status != http.StatusOK {
		t.Fatalf("delete workspace: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		// Get fails as soon as the delete starts; Len drops only once its
		// teardown, which removes the data directory, has finished.
		_, err := follower.Workspaces().Get("team-a")
		return err != nil && follower.Workspaces().Len() == 1
	}, "workspace deletion to mirror")
	if _, err := os.Stat(filepath.Join(dirF, "team-a")); !os.IsNotExist(err) {
		t.Fatalf("follower still holds team-a data dir (stat err %v)", err)
	}
}

func mustWorkspace(t testing.TB, s *Server, name string) *Workspace {
	t.Helper()
	ws, err := s.Workspaces().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestFollowerBootstrapsFromSnapshotAfterCompaction starts the follower
// only after the leader compacted its journal, so catch-up cannot come from
// records alone: the follower must fetch a snapshot, then tail.
func TestFollowerBootstrapsFromSnapshotAfterCompaction(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _, err := Open(Config{Workers: 2, QueueCapacity: 16},
		DurabilityConfig{Dir: dirL, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	if horizon := leader.Journal().CompactedThrough(); horizon == 0 {
		t.Fatal("leader journal did not compact")
	}

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()

	waitFor(t, 10*time.Second, func() bool {
		return len(schemasOn(t, fs.Client(), fs.URL)) == 2
	}, "follower to bootstrap")
	var metrics MetricsSnapshot
	doJSON(t, fs.Client(), "GET", fs.URL+"/metrics", nil, &metrics)
	if metrics.Replication == nil || metrics.Replication.SnapshotsFetched == 0 {
		t.Fatalf("follower never fetched a snapshot: %+v", metrics.Replication)
	}

	// Tailing still works on top of the bootstrap.
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("post-bootstrap equivalence: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		var resp struct {
			Classes [][]any `json:"classes"`
		}
		doJSON(t, fs.Client(), "GET", fs.URL+"/v1/equivalences", nil, &resp)
		return len(resp.Classes) == 5
	}, "post-bootstrap record to replicate")
}

// TestFailedBootstrapLeavesReplicaUnchanged hands a caught-up follower a
// CRC-valid snapshot that cannot be restored (its row log names a schema
// the snapshot does not hold). Bootstrap must fail before touching
// anything: a reset journal or a half-installed store would leave the
// replica claiming a sequence number whose state it does not hold, and the
// next round would skip the re-sent frames as duplicates.
func TestFailedBootstrapLeavesReplicaUnchanged(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, follower) }, "follower to catch up")
	follower.follow.Load().halt(true) // nothing but the bootstrap below touches the replica now

	target := followerTarget{follower}
	seq := follower.Journal().Seq()
	applied, err := target.AppliedSeq(DefaultWorkspace)
	if err != nil {
		t.Fatal(err)
	}
	want := observe(t, fs.Client(), fs.URL)

	state, err := json.Marshal(persistedState{
		Rows: []loadRowsRec{{Schema: "missing", Structure: "E", Rows: []instance.Row{{"k": "1"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := replication.Snapshot{Seq: seq + 10, CRC32: replication.ChecksumState(state), State: state}
	if err := target.Bootstrap(DefaultWorkspace, snap); err == nil {
		t.Fatal("Bootstrap restored a snapshot whose rows name a missing schema")
	}

	if got := follower.Journal().Seq(); got != seq {
		t.Errorf("journal seq after failed bootstrap = %d, want %d", got, seq)
	}
	if got, err := target.AppliedSeq(DefaultWorkspace); err != nil || got != applied {
		t.Errorf("AppliedSeq after failed bootstrap = %d (%v), want %d", got, err, applied)
	}
	requireSameState(t, "replica after failed bootstrap", want, observe(t, fs.Client(), fs.URL))
}

// TestFrameJournaledButNotAppliedIsAppliedOnRedelivery hands a caught-up
// follower a CRC-valid frame that journals but cannot apply (its rows name
// a schema the replica lacks). Its re-delivery must be applied again, not
// skipped as a duplicate, and no later frame may carry AppliedSeq past it:
// otherwise the replica would claim a record whose effect it never got.
func TestFrameJournaledButNotAppliedIsAppliedOnRedelivery(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, follower) }, "follower to catch up")
	follower.follow.Load().halt(true) // nothing but the frames below touches the replica now

	target := followerTarget{follower}
	seq := follower.Journal().Seq()
	applied, err := target.AppliedSeq(DefaultWorkspace)
	if err != nil {
		t.Fatal(err)
	}
	want := observe(t, fs.Client(), fs.URL)
	frame := func(seq uint64, op string, v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		line, err := journal.FrameRecord(journal.Record{Seq: seq, Op: op, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	bad := frame(seq+1, opLoadRows, loadRowsRec{Schema: "missing", Structure: "E", Rows: []instance.Row{{"k": "1"}}})
	next := frame(seq+2, opRemoveSchema, removeSchemaRec{Name: "sc1"})

	deliver := func(label string, line []byte) {
		t.Helper()
		rec, err := journal.ParseFrame(line)
		if err != nil {
			t.Fatal(err)
		}
		err = target.ApplyFrame(DefaultWorkspace, line, rec)
		if err == nil || errors.Is(err, journal.ErrDuplicateSeq) {
			t.Fatalf("%s: ApplyFrame = %v, want the apply failure", label, err)
		}
		if got, err := target.AppliedSeq(DefaultWorkspace); err != nil || got != applied {
			t.Fatalf("%s: AppliedSeq = %d (%v), want %d", label, got, err, applied)
		}
	}
	deliver("first delivery", bad)
	if got := follower.Journal().Seq(); got != seq+1 {
		t.Fatalf("journal seq after the failed apply = %d, want %d", got, seq+1)
	}
	deliver("re-delivery", bad)
	deliver("next frame", next)
	if got := follower.Journal().Seq(); got != seq+1 {
		t.Errorf("journal seq after the refused frame = %d, want %d", got, seq+1)
	}
	requireSameState(t, "replica after unapplied frame", want, observe(t, fs.Client(), fs.URL))
}

// TestLeaderCrashMidStreamFollowerConverges is the in-process chaos test:
// the leader dies (no drain, no sync beyond the per-append policy) while a
// writer is hammering it and a follower is streaming, then restarts from
// its data directory at the same address. The follower must converge on the
// restarted leader's exact journal bytes and state.
func TestLeaderCrashMidStreamFollowerConverges(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	addr, err := leader.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	populatePaperWorkspace(t, client, base)

	follower := openFollower(t, dirF, base)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()

	// Hammer assertions (each is one journal record) while the crash lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := &http.Client{Timeout: 2 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := assertionRequest{Schema1: "sc1", Object1: "Student", Code: 5, Schema2: "sc2", Object2: "Faculty"}
			body, _ := json.Marshal(a)
			req, _ := http.NewRequest("POST", base+"/v1/assertions", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := hc.Do(req)
			if err != nil {
				continue // the crash window: refused connections are expected
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	leader.Kill()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Restart from the crashed data directory on the same address.
	leader2, _ := openDurable(t, dirL, journal.Hooks{})
	defer leader2.Kill()
	waitFor(t, 10*time.Second, func() bool {
		_, err := leader2.Start(addr)
		return err == nil
	}, "leader to rebind its address")

	// More writes after the restart must flow through too.
	if status := doJSON(t, client, "POST", base+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("post-restart write: status %d", status)
	}

	waitFor(t, 15*time.Second, func() bool {
		lb, fb := journalBytes(t, dirL, "default"), journalBytes(t, dirF, "default")
		return len(fb) > 0 && bytes.HasSuffix(lb, fb)
	}, "follower journal to converge on the restarted leader's bytes")

	lSchemas := schemasOn(t, client, base)
	fSchemas := schemasOn(t, fs.Client(), fs.URL)
	if len(lSchemas) != len(fSchemas) || len(lSchemas) != 2 {
		t.Fatalf("schema sets diverged: leader %v follower %v", lSchemas, fSchemas)
	}
}

// TestPromoteFollower promotes a caught-up follower and checks it starts
// accepting writes, reports the leader role, and refuses a second promote.
func TestPromoteFollower(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	client := fs.Client()

	waitFor(t, 10*time.Second, func() bool {
		return bytes.Equal(journalBytes(t, dirL, "default"), journalBytes(t, dirF, "default"))
	}, "journals to converge before promotion")

	var promoted struct {
		Role string `json:"role"`
	}
	if status := doJSON(t, client, "POST", fs.URL+"/v1/promote", nil, &promoted); status != http.StatusOK {
		t.Fatalf("promote status = %d", status)
	}
	if promoted.Role != "leader" {
		t.Fatalf("promote role = %q", promoted.Role)
	}
	if status := doJSON(t, client, "POST", fs.URL+"/v1/promote", nil, nil); status != http.StatusConflict {
		t.Fatalf("second promote status = %d, want 409", status)
	}

	var health struct {
		Role string `json:"role"`
	}
	if status := doJSON(t, client, "GET", fs.URL+"/healthz", nil, &health); status != http.StatusOK || health.Role != "leader" {
		t.Fatalf("promoted healthz = %+v (status %d)", health, status)
	}

	// The promoted server accepts and journals writes on its own now.
	if status := doJSON(t, client, "POST", fs.URL+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("write after promote: status %d", status)
	}
	var res IntegrationResult
	if status := doJSON(t, client, "POST", fs.URL+"/v1/integrate",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &res); status != http.StatusOK {
		t.Fatalf("integrate after promote: status %d", status)
	}

	// The promotion survives a crash: restart the old follower's data dir as
	// a plain leader and find the post-promotion write in it.
	fs.Close()
	follower.Kill()
	reborn, report := openDurable(t, dirF, journal.Hooks{})
	defer reborn.Kill()
	if report.RecoveredWorkspaces == 0 {
		t.Fatalf("nothing recovered from promoted follower's dir: %+v", report)
	}
	rs := httptest.NewServer(reborn.Handler())
	defer rs.Close()
	var resp struct {
		Classes [][]any `json:"classes"`
	}
	if status := doJSON(t, rs.Client(), "GET", rs.URL+"/v1/equivalences", nil, &resp); status != http.StatusOK || len(resp.Classes) != 5 {
		t.Fatalf("post-promotion write lost across restart: status %d classes %v", status, resp.Classes)
	}
}

// TestShutdownWhileFollowing exercises the follower's teardown path: a
// graceful shutdown mid-stream must halt the sync loop, compact, and close
// every journal without hanging or racing.
func TestShutdownWhileFollowing(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	waitFor(t, 10*time.Second, func() bool {
		return len(journalBytes(t, dirF, "default")) > 0
	}, "follower to start applying")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.Shutdown(ctx); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}

	// The shut-down follower's directory restarts cleanly as a follower.
	follower2 := openFollower(t, dirF, ts.URL)
	defer follower2.Kill()
	fs := httptest.NewServer(follower2.Handler())
	defer fs.Close()
	waitFor(t, 10*time.Second, func() bool {
		return len(schemasOn(t, fs.Client(), fs.URL)) == 2
	}, "restarted follower to serve reads")
}

// openFourWorkspaceLeader opens a durable leader holding the paper schemas
// in the default workspace and in ws-a, ws-b and ws-c, served over
// httptest. It returns the leader, its URL and the four API roots.
func openFourWorkspaceLeader(t *testing.T) (*Server, *httptest.Server, []string) {
	t.Helper()
	leader, _ := openDurable(t, t.TempDir(), journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(leader.Kill)
	roots := []string{ts.URL + "/v1"}
	for _, name := range []string{"ws-a", "ws-b", "ws-c"} {
		if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/workspaces",
			workspaceRequest{Name: name}, nil); status != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, status)
		}
		roots = append(roots, ts.URL+"/v1/workspaces/"+name)
	}
	for _, root := range roots {
		uploadPaperSchemasAt(t, ts.Client(), root)
	}
	return leader, ts, roots
}

// TestFollowerFollowsWritesNotItsPollInterval: with an hour-long poll
// interval, a follower of a four-workspace leader still mirrors a write to
// every workspace, a create and a delete within two seconds, so the
// interval is off the replication path.
func TestFollowerFollowsWritesNotItsPollInterval(t *testing.T) {
	leader, ts, roots := openFourWorkspaceLeader(t)
	follower := openFollowerPolling(t, t.TempDir(), ts.URL, time.Hour)
	defer follower.Kill()
	waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, follower) }, "follower to catch up")

	for _, root := range roots {
		if status := doJSON(t, ts.Client(), "POST", root+"/equivalences",
			equivalenceRequest{Schema1: "sc1", Attr1: "Student.Name", Schema2: "sc2", Attr2: "Grad_student.Name"}, nil); status != http.StatusCreated {
			t.Fatalf("equivalence under %s: status %d", root, status)
		}
	}
	// Converge before deleting ws-c, so that no fetch of its write races
	// the delete: a failed round would back off for the full hour.
	waitFor(t, 2*time.Second, func() bool { return caughtUp(leader, follower) }, "writes to reach the follower")
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/workspaces",
		workspaceRequest{Name: "ws-d"}, nil); status != http.StatusCreated {
		t.Fatalf("create ws-d: status %d", status)
	}
	if status := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/workspaces/ws-c", nil, nil); status != http.StatusOK {
		t.Fatalf("delete ws-c: status %d", status)
	}
	waitFor(t, 2*time.Second, func() bool {
		_, err := follower.manager.Get("ws-d")
		return err == nil && caughtUp(leader, follower)
	}, "create and delete to reach the follower")
}

// routeCount sums one route's requests over every status class in a
// /metrics body.
func routeCount(t *testing.T, client *http.Client, base, route string) uint64 {
	t.Helper()
	var m MetricsSnapshot
	if status := doJSON(t, client, "GET", base+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var n uint64
	for _, c := range m.Requests[route] {
		n += c
	}
	return n
}

// TestIdleFollowerHoldsOneListRequest: a caught-up follower of an idle
// four-workspace leader holds one workspace-list request open instead of
// listing and fetching every workspace per poll interval.
func TestIdleFollowerHoldsOneListRequest(t *testing.T) {
	leader, ts, _ := openFourWorkspaceLeader(t)
	follower := openFollower(t, t.TempDir(), ts.URL)
	defer follower.Kill()
	waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, follower) }, "follower to catch up")
	time.Sleep(100 * time.Millisecond) // let the last catch-up round finish

	const list, records = "GET /v1/replication/workspaces", "GET /v1/replication/workspaces/{ws}/records"
	lists0, records0 := routeCount(t, ts.Client(), ts.URL, list), routeCount(t, ts.Client(), ts.URL, records)
	time.Sleep(500 * time.Millisecond)
	lists, recs := routeCount(t, ts.Client(), ts.URL, list)-lists0, routeCount(t, ts.Client(), ts.URL, records)-records0
	if lists > 2 || recs != 0 {
		t.Fatalf("idle follower over 500ms: %d list and %d records requests, want at most 2 and 0", lists, recs)
	}
}

// TestMixedVersionsDoNotBusyLoop: a follower facing a leader that reports
// no change version backs off its poll interval between rounds and fetches
// records only for workspaces that moved; a leader asked without ?since
// answers at once, as before the parameter existed.
func TestMixedVersionsDoNotBusyLoop(t *testing.T) {
	t.Run("older leader", func(t *testing.T) {
		var lists, records atomic.Int64
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case replication.PathPrefix:
				lists.Add(1)
				w.Write([]byte(`{"workspaces":[{"name":"default","seq":0,"horizon":0}]}`))
			case replication.PathPrefix + "/default/records":
				records.Add(1)
				w.Header().Set(replication.HeaderSeq, "0")
				w.Header().Set(replication.HeaderHorizon, "0")
			default:
				http.NotFound(w, r)
			}
		}))
		defer old.Close()

		follower := openFollowerPolling(t, t.TempDir(), old.URL, 100*time.Millisecond)
		time.Sleep(550 * time.Millisecond)
		follower.Kill()
		if n := lists.Load(); n < 2 || n > 8 {
			t.Errorf("%d list requests in 550ms at a 100ms poll interval, want 2..8", n)
		}
		if n := records.Load(); n != 1 {
			t.Errorf("%d records requests for a workspace that never moved, want 1 (first contact)", n)
		}
	})

	t.Run("older follower", func(t *testing.T) {
		leader, _ := openDurable(t, t.TempDir(), journal.Hooks{})
		defer leader.Kill()
		ts := httptest.NewServer(leader.Handler())
		defer ts.Close()
		list := func(query string) (replication.ListResponse, time.Duration) {
			t.Helper()
			var out replication.ListResponse
			start := time.Now()
			if status := doJSON(t, ts.Client(), "GET", ts.URL+replication.PathPrefix+query, nil, &out); status != http.StatusOK {
				t.Fatalf("list%s: status %d", query, status)
			}
			return out, time.Since(start)
		}
		first, took := list("?wait=5000")
		if took > time.Second || first.Version == 0 {
			t.Fatalf("list without since: version %d after %v, want a version at once", first.Version, took)
		}
		since := strconv.FormatUint(first.Version, 10)
		if held, took := list("?since=" + since + "&wait=300"); took < 250*time.Millisecond || held.Version != first.Version {
			t.Fatalf("list at the current version: version %d after %v, want it held ~300ms", held.Version, took)
		}
		if _, took := list("?since=" + strconv.FormatUint(first.Version-1, 10) + "&wait=5000"); took > time.Second {
			t.Fatalf("list at a stale version answered after %v, want at once", took)
		}
	})
}

// TestHeldListAnswersAtTheChange: a list request held at the current
// version answers with the new version as soon as a change wakes it, not
// after a batching window, so a follower starts fetching the write at
// once.
func TestHeldListAnswersAtTheChange(t *testing.T) {
	leader, _ := openDurable(t, t.TempDir(), journal.Hooks{})
	defer leader.Kill()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	c := replication.NewClient(ts.URL, ts.Client())
	first, err := c.WatchWorkspaces(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		list replication.ListResponse
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		list, err := c.WatchWorkspaces(context.Background(), first.Version, 10*time.Second)
		done <- answer{list, err}
	}()
	time.Sleep(200 * time.Millisecond) // let the request park

	if _, err := leader.Workspaces().Create("ws-a"); err != nil {
		t.Fatal(err)
	}
	bumped := time.Now()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.list.Version == first.Version {
			t.Fatalf("held list answered version %d, the version it was held at", a.list.Version)
		}
		if !slices.ContainsFunc(a.list.Workspaces, func(w replication.WorkspaceStatus) bool { return w.Name == "ws-a" }) {
			t.Fatalf("held list answered %+v without the new workspace", a.list.Workspaces)
		}
		t.Logf("held list answered %v after the create", time.Since(bumped))
	case <-time.After(5 * time.Second):
		t.Fatal("held list request still parked 5s after a create")
	}
}

// TestFollowerRebootstrapsJournalThatCannotReplay: a follower whose journal
// holds a record that cannot apply (built like the frame of
// TestFrameJournaledButNotAppliedIsAppliedOnRedelivery) still opens after a
// crash, refuses promotion while the workspace waits for the leader, and
// re-bootstraps it from the leader's snapshot once the leader is reachable.
func TestFollowerRebootstrapsJournalThatCannotReplay(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, follower) }, "follower to catch up")
	follower.follow.Load().halt(true)
	seq := follower.Journal().Seq()
	data, err := json.Marshal(loadRowsRec{Schema: "missing", Structure: "E", Rows: []instance.Row{{"k": "1"}}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := journal.FrameRecord(journal.Record{Seq: seq + 1, Op: opLoadRows, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := journal.ParseFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := (followerTarget{follower}).ApplyFrame(DefaultWorkspace, bad, rec); err == nil {
		t.Fatal("the bad frame applied")
	}
	follower.Kill()

	// With the leader out of reach the follower still opens, and will not
	// be promoted while the workspace waits for its snapshot.
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	orphan := openFollower(t, dirF, gone.URL)
	ots := httptest.NewServer(orphan.Handler())
	if status := doJSON(t, ots.Client(), "POST", ots.URL+"/v1/promote", nil, nil); status != http.StatusConflict {
		t.Errorf("promote with a workspace awaiting re-bootstrap: status %d, want 409", status)
	}
	ots.Close()
	orphan.Kill()

	reopened := openFollower(t, dirF, ts.URL)
	defer reopened.Kill()
	fs := httptest.NewServer(reopened.Handler())
	defer fs.Close()
	// A later leader write must land on the rebuilt replica, not behind the
	// bad frame.
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("leader write: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		return caughtUp(leader, reopened) && reopened.Journal().Seq() == leader.Journal().Seq()
	}, "reopened follower to converge")
	if lb, fb := journalBytes(t, dirL, DefaultWorkspace), journalBytes(t, dirF, DefaultWorkspace); !bytes.HasSuffix(lb, fb) {
		t.Errorf("follower journal is not a suffix of the leader's:\nleader   %q\nfollower %q", lb, fb)
	}
	requireSameState(t, "re-bootstrapped follower", observe(t, ts.Client(), ts.URL), observe(t, fs.Client(), fs.URL))
	if got := reopened.replicationSnapshot().SnapshotsFetched; got != 1 {
		t.Errorf("snapshots_fetched = %d, want 1", got)
	}
}

// TestFollowerBootstrapAnswersHeldRecordsLongPoll: a records long-poll
// held on a follower (a chained reader) answers 410 as soon as that
// follower re-bootstraps past its position, not when its wait runs out.
func TestFollowerBootstrapAnswersHeldRecordsLongPoll(t *testing.T) {
	leader, _ := openDurable(t, t.TempDir(), journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	follower := openFollower(t, t.TempDir(), ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, follower) }, "follower to catch up")
	follower.follow.Load().halt(true)

	type answer struct {
		status int
		took   time.Duration
	}
	done := make(chan answer, 1)
	go func() {
		start := time.Now()
		url := fs.URL + replication.PathPrefix + "/default/records?from=" +
			strconv.FormatUint(follower.Journal().Seq(), 10) + "&wait=20000"
		resp, err := fs.Client().Get(url)
		if err != nil {
			done <- answer{status: -1}
			return
		}
		resp.Body.Close()
		done <- answer{resp.StatusCode, time.Since(start)}
	}()
	time.Sleep(200 * time.Millisecond) // let the request park

	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("leader write: status %d", status)
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := replication.NewClient(ts.URL, ts.Client()).Snapshot(context.Background(), DefaultWorkspace)
	if err != nil {
		t.Fatal(err)
	}
	if err := (followerTarget{follower}).Bootstrap(DefaultWorkspace, snap); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-done:
		if a.status != http.StatusGone || a.took > 5*time.Second {
			t.Fatalf("held records request: status %d after %v, want 410 at once", a.status, a.took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held records request still parked 5s after the follower bootstrapped")
	}
}

// TestShutdownAnswersHeldLongPolls: a graceful shutdown answers the
// long-polls a follower holds on the leader at once, so they do not hold
// the drain up for their whole wait.
func TestShutdownAnswersHeldLongPolls(t *testing.T) {
	leader, _ := openDurable(t, t.TempDir(), journal.Hooks{})
	addr, err := leader.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	c := replication.NewClient(base, nil)
	first, err := c.WatchWorkspaces(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := c.WatchWorkspaces(context.Background(), first.Version, 20*time.Second)
		errs <- err
	}()
	go func() {
		_, err := c.Records(context.Background(), DefaultWorkspace, leader.Journal().Seq(), 20*time.Second)
		errs <- err
	}()
	time.Sleep(200 * time.Millisecond) // let both requests park

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := leader.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("shutdown took %v with two long-polls held", took)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("held request: %v", err)
		}
	}
}
