package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// fakeLeader serves the replication API from an in-memory log.
type fakeLeader struct {
	name    string
	lines   [][]byte // framed journal lines, seq = index+1
	horizon uint64
	state   []byte // snapshot state at horizon
}

func (l *fakeLeader) seq() uint64 { return uint64(len(l.lines)) }

// append frames one more record onto the fake log.
func (l *fakeLeader) append(t *testing.T, op string, data string) {
	t.Helper()
	rec := journal.Record{Seq: l.seq() + 1, Op: op, Data: json.RawMessage(data)}
	line, err := journal.FrameRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	l.lines = append(l.lines, line)
}

// compact moves the horizon forward, discarding the covered lines.
func (l *fakeLeader) compact(upto uint64, state string) {
	l.horizon = upto
	l.state = []byte(state)
}

func (l *fakeLeader) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ListResponse{Workspaces: []WorkspaceStatus{
			{Name: l.name, Seq: l.seq(), Horizon: l.horizon},
		}})
	})
	mux.HandleFunc(PathPrefix+"/"+l.name+"/snapshot", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Snapshot{Seq: l.horizon, CRC32: ChecksumState(l.state), State: l.state})
	})
	mux.HandleFunc(PathPrefix+"/"+l.name+"/records", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if from < l.horizon {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.Header().Set(HeaderSeq, strconv.FormatUint(l.seq(), 10))
		w.Header().Set(HeaderHorizon, strconv.FormatUint(l.horizon, 10))
		for i := from; i < l.seq(); i++ {
			w.Write(l.lines[i])
		}
	})
	return mux
}

// fakeTarget records applies into an in-memory replica.
type fakeTarget struct {
	applied    uint64
	bootstraps int
	ops        []string
	state      []byte
	failApply  error // returned by ApplyFrame once, then cleared
	stale      bool  // AppliedSeq answers ErrNeedsSnapshot until a bootstrap
}

func (t *fakeTarget) AppliedSeq(ws string) (uint64, error) {
	if t.stale {
		return t.applied, ErrNeedsSnapshot
	}
	return t.applied, nil
}

func (t *fakeTarget) Bootstrap(ws string, snap Snapshot) error {
	t.bootstraps++
	t.stale = false
	t.applied = snap.Seq
	t.state = snap.State
	t.ops = nil
	return nil
}

func (t *fakeTarget) ApplyFrame(ws string, line []byte, rec Record) error {
	if t.failApply != nil {
		err := t.failApply
		t.failApply = nil
		return err
	}
	if rec.Seq <= t.applied {
		return fmt.Errorf("%w: %d", journal.ErrDuplicateSeq, rec.Seq)
	}
	if rec.Seq != t.applied+1 {
		return fmt.Errorf("%w: %d", journal.ErrSeqGap, rec.Seq)
	}
	if !strings.HasSuffix(string(line), "\n") {
		return fmt.Errorf("frame line missing newline: %q", line)
	}
	t.applied = rec.Seq
	t.ops = append(t.ops, rec.Op)
	return nil
}

func startLeader(t *testing.T, l *fakeLeader) *Client {
	t.Helper()
	srv := httptest.NewServer(l.handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client())
}

func TestSyncTailsFromZero(t *testing.T) {
	leader := &fakeLeader{name: "default"}
	leader.append(t, "add_schemas", `{"n":1}`)
	leader.append(t, "assert", `{"n":2}`)
	c := startLeader(t, leader)

	tgt := &fakeTarget{}
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Applied != 2 || p.AppliedSeq != 2 || p.LeaderSeq != 2 || p.Bootstrapped {
		t.Fatalf("progress = %+v, want 2 applied through seq 2", p)
	}
	if len(tgt.ops) != 2 || tgt.ops[0] != "add_schemas" || tgt.ops[1] != "assert" {
		t.Fatalf("ops = %v", tgt.ops)
	}
	if p.Bytes == 0 {
		t.Fatal("no bytes counted")
	}

	// Caught up: the next round applies nothing.
	p, err = SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Applied != 0 || p.AppliedSeq != 2 {
		t.Fatalf("caught-up progress = %+v", p)
	}
}

func TestSyncResumesAfterDisconnect(t *testing.T) {
	leader := &fakeLeader{name: "default"}
	leader.append(t, "a", `{}`)
	leader.append(t, "b", `{}`)
	c := startLeader(t, leader)

	tgt := &fakeTarget{applied: 1} // record 1 already applied pre-disconnect
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Applied != 1 || p.AppliedSeq != 2 || tgt.bootstraps != 0 {
		t.Fatalf("progress = %+v bootstraps = %d, want 1 applied, 0 bootstraps", p, tgt.bootstraps)
	}
}

func TestSyncReSnapshotsAfterCompaction(t *testing.T) {
	leader := &fakeLeader{name: "default"}
	for i := 0; i < 6; i++ {
		leader.append(t, "op", `{}`)
	}
	leader.compact(4, `{"compacted":true}`)
	c := startLeader(t, leader)

	// Replica at 2, leader horizon at 4: records 3..4 are gone, so the
	// round must bootstrap from the snapshot and then tail 5..6.
	tgt := &fakeTarget{applied: 2}
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Bootstrapped || tgt.bootstraps != 1 {
		t.Fatalf("progress = %+v bootstraps = %d, want a bootstrap", p, tgt.bootstraps)
	}
	if p.AppliedSeq != 6 || p.Applied != 2 {
		t.Fatalf("progress = %+v, want seq 6 with 2 records after the snapshot", p)
	}
	if string(tgt.state) != `{"compacted":true}` {
		t.Fatalf("state = %s", tgt.state)
	}
}

func TestSyncReSnapshotsOnDivergence(t *testing.T) {
	// The leader restarted after losing acknowledged records: it is at seq
	// 1 while the replica is at 3. The replica must rebuild.
	leader := &fakeLeader{name: "default"}
	leader.append(t, "op", `{}`)
	leader.compact(1, `{"rebuilt":true}`)
	c := startLeader(t, leader)

	tgt := &fakeTarget{applied: 3}
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Bootstrapped || p.AppliedSeq != 1 {
		t.Fatalf("progress = %+v, want bootstrap down to seq 1", p)
	}
	if string(tgt.state) != `{"rebuilt":true}` {
		t.Fatalf("state = %s", tgt.state)
	}
}

func TestSyncReSnapshotsOnLocalGap(t *testing.T) {
	leader := &fakeLeader{name: "default"}
	leader.append(t, "a", `{}`)
	leader.append(t, "b", `{}`)
	leader.compact(0, `{"full":true}`) // snapshot exists but nothing compacted
	c := startLeader(t, leader)

	// The target reports seq 0 but refuses the first frame with a gap
	// (its journal lost history behind its reported position).
	tgt := &fakeTarget{failApply: fmt.Errorf("%w: injected", journal.ErrSeqGap)}
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Bootstrapped || tgt.bootstraps != 1 {
		t.Fatalf("progress = %+v bootstraps = %d, want a bootstrap", p, tgt.bootstraps)
	}
}

func TestSyncReSnapshotsWhenTargetAsks(t *testing.T) {
	leader := &fakeLeader{name: "default"}
	for i := 0; i < 3; i++ {
		leader.append(t, "op", `{}`)
	}
	leader.compact(2, `{"leader":true}`)
	c := startLeader(t, leader)

	// The replica claims seq 3 but its journal did not replay: it must be
	// rebuilt from the snapshot (seq 2) and then tail record 3, even though
	// its position alone would need nothing.
	tgt := &fakeTarget{applied: 3, stale: true}
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Bootstrapped || tgt.bootstraps != 1 || p.AppliedSeq != 3 || p.Applied != 1 {
		t.Fatalf("progress = %+v bootstraps = %d, want a bootstrap to 2 and record 3 applied", p, tgt.bootstraps)
	}
	if string(tgt.state) != `{"leader":true}` {
		t.Fatalf("state = %s", tgt.state)
	}
}

func TestWatchWorkspacesSendsSinceAndWait(t *testing.T) {
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries = append(queries, r.URL.RawQuery)
		json.NewEncoder(w).Encode(ListResponse{Workspaces: []WorkspaceStatus{{Name: "default", Seq: 4}}, Version: 9})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	list, err := c.WatchWorkspaces(context.Background(), 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if list.Version != 9 || len(list.Workspaces) != 1 || list.Workspaces[0].Seq != 4 {
		t.Fatalf("list = %+v", list)
	}
	if _, err := c.WatchWorkspaces(context.Background(), 9, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// No since: an immediate answer is wanted, so no wait is sent either.
	if len(queries) != 2 || queries[0] != "" || queries[1] != "since=9&wait=1500" {
		t.Fatalf("queries = %q", queries)
	}
}

func TestSyncSkipsDuplicates(t *testing.T) {
	// A leader that over-delivers: asked for records after seq 1, it
	// re-sends record 1 too — the shape of re-delivery after a reconnect.
	var lines [][]byte
	for seq := uint64(1); seq <= 2; seq++ {
		line, err := journal.FrameRecord(journal.Record{Seq: seq, Op: "op"})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderSeq, "2")
		w.Header().Set(HeaderHorizon, "0")
		for _, line := range lines {
			w.Write(line)
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	tgt := &fakeTarget{applied: 1}
	p, err := SyncWorkspace(context.Background(), c, tgt, "default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Applied != 1 || p.AppliedSeq != 2 || p.Bootstrapped || tgt.bootstraps != 0 {
		t.Fatalf("progress = %+v bootstraps = %d, want the duplicate skipped and seq 2 applied", p, tgt.bootstraps)
	}
}

func TestClientRejectsCorruptStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderSeq, "1")
		w.Header().Set(HeaderHorizon, "0")
		line, _ := journal.FrameRecord(journal.Record{Seq: 1, Op: "op"})
		line[12] ^= 0xff // corrupt in flight
		w.Write(line)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Records(context.Background(), "default", 0, 0); err == nil {
		t.Fatal("corrupt stream accepted")
	}
}

func TestClientRejectsBadSnapshotChecksum(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Snapshot{Seq: 3, CRC32: "00000000", State: json.RawMessage(`{"x":1}`)})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Snapshot(context.Background(), "default"); err == nil {
		t.Fatal("bad snapshot checksum accepted")
	}
}

func TestClientClassifiesStatuses(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   error
	}{
		{http.StatusGone, ErrCompacted},
		{http.StatusMisdirectedRequest, ErrNotLeader},
		{http.StatusNotFound, ErrNoWorkspace},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
		}))
		c := NewClient(srv.URL, srv.Client())
		_, err := c.Records(context.Background(), "default", 0, 0)
		srv.Close()
		if !errors.Is(err, tc.want) {
			t.Errorf("status %d: err = %v, want %v", tc.status, err, tc.want)
		}
	}
}
