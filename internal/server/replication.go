package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/replication"
)

// FollowerConfig parameterizes follower mode (Config.Follow).
type FollowerConfig struct {
	// Leader is the leader's base URL (scheme://host:port). Required.
	Leader string
	// PollInterval is the sync loop's back-off after a failed round (leader
	// down, network partition) or an answer from a leader too old to report
	// a change version (default 100ms). It does not pace a healthy loop:
	// that one long-polls the leader's workspace list and fetches records
	// when a write lands.
	PollInterval time.Duration
	// Client overrides the HTTP client used against the leader (tests,
	// custom transports); nil uses http.DefaultClient.
	Client *http.Client
	// APIKey authenticates the stream requests against the leader (an
	// admin-scoped key) when the leader enforces API keys.
	APIKey string
}

// authedTransport injects the follower's API key into every leader call.
type authedTransport struct {
	key  string
	next http.RoundTripper
}

func (t authedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("Authorization", "Bearer "+t.key)
	return t.next.RoundTrip(r)
}

// maxStreamWait caps how long the leader-side long-polls (the record
// stream and the workspace list) hold a request before answering, keeping
// them safely inside the request timeout.
const maxStreamWait = 25 * time.Second

// followWait is how long a follower asks the leader to hold its workspace
// list request while nothing changes. An idle follower costs one small
// request per wait; a leader closed without Shutdown (which answers held
// requests at once) waits at most this long on it.
const followWait = time.Second

// changeFeed is the leader-wide change counter behind the workspace list's
// long-poll: every journal append or reset and every workspace create or
// delete bumps it, waking the list requests held on it.
type changeFeed struct {
	mu      sync.Mutex
	version uint64        // guarded by mu
	changed chan struct{} // guarded by mu; closed by the next bump
}

// newChangeFeed starts the counter at the boot time in nanoseconds, so a
// restarted leader does not repeat a version a follower saw before the
// restart, and no version is 0 ("not reported").
func newChangeFeed() *changeFeed {
	return &changeFeed{version: uint64(time.Now().UnixNano())}
}

// bump moves the version and wakes every watcher.
func (c *changeFeed) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// watch returns the current version and a channel the next bump closes.
func (c *changeFeed) watch() (uint64, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.changed == nil {
		c.changed = make(chan struct{})
	}
	return c.version, c.changed
}

// followState is the live follower machinery: the sync loop's handles plus
// the replication counters /metrics and /healthz report. It is built once
// at Open and discarded (atomically, via Server.follow) on promotion.
type followState struct {
	leader string
	client *replication.Client
	poll   time.Duration

	// ctx cancels in-flight HTTP calls when the follower halts; stop wakes
	// the loop's sleeps; done closes when the loop has fully exited.
	ctx      context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	recordsApplied   atomic.Uint64
	bytesApplied     atomic.Uint64
	snapshotsFetched atomic.Uint64
	syncErrors       atomic.Uint64

	mu  sync.Mutex
	lag map[string]ReplicaLag // guarded by mu
}

// halt stops the sync loop; with wait it also blocks until the loop has
// exited (graceful shutdown and promotion want quiescence, Kill does not).
func (f *followState) halt(wait bool) {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.cancel()
	})
	if wait {
		<-f.done
	}
}

func (f *followState) setLag(ws string, l ReplicaLag) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lag[ws] = l
}

func (f *followState) dropLag(ws string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.lag, ws)
}

// lagSnapshot copies the per-workspace lag table.
func (f *followState) lagSnapshot() map[string]ReplicaLag {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]ReplicaLag, len(f.lag))
	for ws, l := range f.lag {
		out[ws] = l
	}
	return out
}

// replicaState is a follower workspace's applied state beyond the store:
// the job table as the leader's stream describes it (jobs here were run by
// the leader; the follower never executes them) and the last applied
// sequence number. The single apply loop is the only writer; reads (job
// listings, lag reports, snapshot capture) take the same lock, so a capture
// can never observe a half-applied record.
type replicaState struct {
	mu         sync.Mutex
	table      *jobTable // guarded by mu
	appliedSeq uint64    // guarded by mu
	// stale marks a replica whose journal did not fully replay at start-up:
	// its next sync bootstraps it from the leader's snapshot, which clears
	// the mark.
	stale bool // guarded by mu
}

// isStale reports whether the replica awaits a re-bootstrap.
func (rep *replicaState) isStale() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.stale
}

// jobsSnapshot copies the replica's job table.
func (rep *replicaState) jobsSnapshot() []Job {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return append([]Job(nil), rep.table.jobs...)
}

// jobGet looks a job up in the replica's table.
func (rep *replicaState) jobGet(id string) (Job, bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if i, ok := rep.table.byID[id]; ok {
		return rep.table.jobs[i], true
	}
	return Job{}, false
}

// jobsView returns the workspace's job table: the replica's applied table
// on a follower, the live queue's otherwise.
func (ws *Workspace) jobsView() []Job {
	if rep := ws.replica.Load(); rep != nil {
		return rep.jobsSnapshot()
	}
	return ws.queue.List()
}

// jobView looks one job up by ID, replica-aware like jobsView.
func (ws *Workspace) jobView(id string) (Job, bool) {
	if rep := ws.replica.Load(); rep != nil {
		return rep.jobGet(id)
	}
	return ws.queue.Get(id)
}

// armReplica wires a recovered (or freshly created) workspace as a follower
// replica whose store holds the records through applied: the journal is
// held by a persister for teardown and observation, but nothing journals
// through the store or queue — every append flows through the replication
// apply path — and the compaction loop stays parked (the sync loop compacts
// synchronously; promotion starts the loop). A journal holding records past
// applied did not replay, so the replica is marked stale.
func (s *Server) armReplica(ws *Workspace, j *journal.Journal, jobs *jobTable, applied uint64) {
	ws.persist = &persister{j: j, every: s.dcfg.SnapshotEvery, stop: make(chan struct{}), done: make(chan struct{})}
	j.SetObserver(func(fsync time.Duration, err error) {
		s.metrics.ObserveJournalAppend(fsync, err)
	})
	j.SetOnChange(s.changes.bump)
	ws.replica.Store(&replicaState{table: jobs, appliedSeq: applied, stale: applied < j.Seq()})
}

// startFollowing validates the follower configuration and launches the sync
// loop. Open calls it after recovery, so the loop starts from whatever the
// local journals already hold and catches up from there.
func (s *Server) startFollowing() error {
	fc := s.cfg.Follow
	if fc.Leader == "" {
		return fmt.Errorf("server: follower mode needs a leader URL")
	}
	poll := fc.PollInterval
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	client := fc.Client
	if fc.APIKey != "" {
		base := http.DefaultTransport
		if client != nil && client.Transport != nil {
			base = client.Transport
		}
		authed := &http.Client{Transport: authedTransport{key: fc.APIKey, next: base}}
		if client != nil {
			authed.Timeout = client.Timeout
		}
		client = authed
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &followState{
		leader: strings.TrimRight(fc.Leader, "/"),
		client: replication.NewClient(fc.Leader, client),
		poll:   poll,
		ctx:    ctx,
		cancel: cancel,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		lag:    map[string]ReplicaLag{},
	}
	s.follow.Store(f)
	go s.followLoop(f)
	return nil
}

// followLoop drives rounds of syncRound until halted. Each round waits on
// the leader's change version from the one before, so the loop sleeps the
// poll interval only when it has no version to wait on: after a failed
// round (leader down, network partition), or against a leader too old to
// report one.
func (s *Server) followLoop(f *followState) {
	defer close(f.done)
	synced := map[string]bool{}
	var since uint64
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		var err error
		since, err = s.syncRound(f, since, synced)
		if err != nil {
			f.syncErrors.Add(1)
			if s.log != nil {
				s.log.Warn("replication sync", "leader", f.leader, "error", err)
			}
		}
		if since == 0 {
			select {
			case <-f.stop:
				return
			case <-time.After(f.poll):
			}
		}
	}
}

// syncRound reconciles the follower against the leader once. The workspace
// list request is held open on the leader until its change version differs
// from since (0 asks for an answer at once). The round then mirrors the
// workspace set (creates what the leader has, drops what it no longer does)
// and runs one SyncWorkspace round, without waiting, on each workspace this
// loop has not synced yet (synced names those it has) or whose listed Seq
// differs from its applied one. It returns the version to wait on next, or
// 0 after an error so that the next round does not wait.
func (s *Server) syncRound(f *followState, since uint64, synced map[string]bool) (uint64, error) {
	list, err := f.client.WatchWorkspaces(f.ctx, since, followWait)
	if err != nil {
		return 0, err
	}

	target := followerTarget{s}
	leaderHas := make(map[string]bool, len(list.Workspaces))
	var firstErr error
	for _, stat := range list.Workspaces {
		leaderHas[stat.Name] = true
		if applied, err := target.AppliedSeq(stat.Name); err == nil && synced[stat.Name] && applied == stat.Seq {
			continue // nothing moved; SyncWorkspace reports any error
		}
		p, err := replication.SyncWorkspace(f.ctx, f.client, target, stat.Name, 0)
		if err != nil {
			if errors.Is(err, replication.ErrNoWorkspace) {
				continue // deleted on the leader between the list and the sync
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		synced[stat.Name] = true
		f.recordsApplied.Add(uint64(p.Applied))
		f.bytesApplied.Add(uint64(p.Bytes))
		if p.Bootstrapped {
			f.snapshotsFetched.Add(1)
		}
		s.recordLag(f, stat.Name, p)
		s.maybeCompactReplica(stat.Name)
	}

	// Drop local workspaces the leader no longer has. Delete refuses the
	// default workspace on its own; an empty default mirrors an empty leader
	// default either way.
	for _, ws := range s.manager.List() {
		if !leaderHas[ws.name] && ws.name != DefaultWorkspace {
			if err := s.manager.Delete(ws.name); err == nil {
				f.dropLag(ws.name)
				delete(synced, ws.name)
			}
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return list.Version, nil
}

// ensureReplicaWorkspace returns the named local workspace, creating it
// (with its replica armed, via the follower branch of buildWorkspace's
// journal hook) when the leader has it and the follower does not yet.
func (s *Server) ensureReplicaWorkspace(name string) (*Workspace, error) {
	ws, err := s.manager.Get(name)
	if err == nil {
		return ws, nil
	}
	ws, err = s.manager.Create(name)
	if errors.Is(err, ErrWorkspaceExists) {
		return s.manager.Get(name)
	}
	return ws, err
}

// recordLag updates the follower's per-workspace lag table from one sync
// round's progress.
func (s *Server) recordLag(f *followState, name string, p replication.Progress) {
	l := ReplicaLag{AppliedSeq: p.AppliedSeq, LeaderSeq: p.LeaderSeq}
	if p.LeaderSeq > p.AppliedSeq {
		l.LagRecords = p.LeaderSeq - p.AppliedSeq
	}
	if ws, err := s.manager.Get(name); err == nil && ws.persist != nil {
		if local := ws.persist.j.Offset(); p.LeaderOffset > local {
			l.LagBytes = p.LeaderOffset - local
		}
	}
	f.setLag(name, l)
}

// maybeCompactReplica compacts a replica workspace's journal when enough
// records accumulated. Runs synchronously from the sync loop — the replica
// has no compaction goroutine — so a capture never races an apply.
func (s *Server) maybeCompactReplica(name string) {
	ws, err := s.manager.Get(name)
	if err != nil || ws.persist == nil {
		return
	}
	if ws.persist.j.SinceCompact() < uint64(s.dcfg.SnapshotEvery) {
		return
	}
	if err := s.compactWorkspace(ws); err != nil && s.log != nil {
		s.log.Error("compact replica", "workspace", ws.name, "error", err)
	}
}

// followerTarget adapts the server to replication.Target: frames are
// journaled first (write-ahead, like every leader mutation) and then applied
// through the same replay path recovery uses.
type followerTarget struct {
	s *Server
}

func (t followerTarget) AppliedSeq(name string) (uint64, error) {
	ws, err := t.s.ensureReplicaWorkspace(name)
	if err != nil {
		return 0, err
	}
	rep := ws.replica.Load()
	if rep == nil {
		return 0, fmt.Errorf("workspace %q is not a replica", name)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.stale {
		return rep.appliedSeq, replication.ErrNeedsSnapshot
	}
	return rep.appliedSeq, nil
}

// Bootstrap replaces the replica wholesale with a leader snapshot. The
// snapshot is rebuilt off to the side first, so one that cannot be
// restored fails before anything changes. Then the journal is reset
// (durability before visibility: a crash after the reset recovers the
// snapshot's consistent state), and the store, job table, sequence number
// and key set are installed together under the replica lock.
func (t followerTarget) Bootstrap(name string, snap replication.Snapshot) error {
	ws, err := t.s.ensureReplicaWorkspace(name)
	if err != nil {
		return err
	}
	rep := ws.replica.Load()
	if rep == nil || ws.persist == nil {
		return fmt.Errorf("workspace %q is not a replica", name)
	}
	rs, err := t.s.restoreState(name, snap.State)
	if err != nil {
		return err
	}
	if err := ws.persist.j.ResetTo(snap.State, snap.Seq); err != nil {
		return err
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	ws.store.install(rs.store)
	rep.table, rep.appliedSeq, rep.stale = rs.jobs, snap.Seq, false
	if rs.keys != nil {
		t.s.installKeys(rs.keys)
	}
	return nil
}

// ApplyFrame journals one raw frame (no locks held across the disk write)
// and then applies its record to the store and job table under the replica
// lock — the same order mutations commit on the leader.
//
// A frame whose apply failed stays journaled while appliedSeq stays behind
// it. Its re-delivery is applied without journaling it again, and every
// other frame is refused until it is: skipping it as a duplicate would let
// the next frame carry appliedSeq past a record whose effect is missing.
//
//sit:replay
func (t followerTarget) ApplyFrame(name string, line []byte, rec replication.Record) error {
	ws, err := t.s.ensureReplicaWorkspace(name)
	if err != nil {
		return err
	}
	rep := ws.replica.Load()
	if rep == nil || ws.persist == nil {
		return fmt.Errorf("workspace %q is not a replica", name)
	}
	// Only the sync loop (this call and Bootstrap) writes appliedSeq, so it
	// holds still while the lock is released for the journal read below.
	rep.mu.Lock()
	applied := rep.appliedSeq
	rep.mu.Unlock()
	if ws.persist.j.Seq() > applied {
		if rec.Seq != applied+1 {
			return fmt.Errorf("record %d is journaled but not applied; refusing record %d until it is", applied+1, rec.Seq)
		}
	} else if _, err := ws.persist.j.AppendFrame(line); err != nil {
		return err
	}
	var keysHook func([]apiKeyEntry) error
	if name == DefaultWorkspace {
		keysHook = t.s.applyJournaledKeys
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if err := applyRecord(ws.store, rep.table, keysHook, rec); err != nil {
		return fmt.Errorf("apply journaled record %d (%s): %w", rec.Seq, rec.Op, err)
	}
	rep.appliedSeq = rec.Seq
	return nil
}

// --- read-only gating ---

// redirectToLeader answers a mutation on a follower: 421 (Misdirected
// Request) with a Location pointing the client at the leader's copy of the
// same path, plus a Retry-After floor for clients that treat any rejection
// as "back off and retry here". Returns true when the request was consumed.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request) bool {
	f := s.follow.Load()
	if f == nil {
		return false
	}
	w.Header().Set("Location", f.leader+r.URL.RequestURI())
	w.Header().Set("Retry-After", strconv.Itoa(minRetryAfterSeconds))
	writeError(w, http.StatusMisdirectedRequest,
		fmt.Errorf("this server is a read-only follower of %s; send writes to the leader", f.leader))
	return true
}

// gate wraps a mutating route so a follower refuses it with a redirect.
func (s *Server) gate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.redirectToLeader(w, r) {
			return
		}
		h(w, r)
	}
}

// role names the server's current replication role.
func (s *Server) role() string {
	if s.follow.Load() != nil {
		return "follower"
	}
	return "leader"
}

// replicationSnapshot renders the /metrics replication section.
func (s *Server) replicationSnapshot() *ReplicationSnapshot {
	f := s.follow.Load()
	if f == nil {
		return &ReplicationSnapshot{Role: "leader"}
	}
	return &ReplicationSnapshot{
		Role:             "follower",
		Leader:           f.leader,
		RecordsApplied:   f.recordsApplied.Load(),
		BytesApplied:     f.bytesApplied.Load(),
		SnapshotsFetched: f.snapshotsFetched.Load(),
		SyncErrors:       f.syncErrors.Load(),
		Workspaces:       f.lagSnapshot(),
	}
}

// --- leader-side stream API ---

// replWorkspace resolves a replication route's workspace and its journal.
func (s *Server) replWorkspace(w http.ResponseWriter, r *http.Request) (*Workspace, *journal.Journal, bool) {
	if s.dcfg == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("server is memory-only; replication needs a data directory"))
		return nil, nil, false
	}
	ws, err := s.manager.Get(r.PathValue("ws"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, nil, false
	}
	if ws.persist == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("workspace %q has no journal", ws.name))
		return nil, nil, false
	}
	return ws, ws.persist.j, true
}

// streamWait parses a long-poll's ?wait (milliseconds), capped at
// maxStreamWait and at half the request timeout.
func (s *Server) streamWait(r *http.Request) (time.Duration, error) {
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			return 0, fmt.Errorf("bad wait parameter %q", raw)
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > maxStreamWait {
		wait = maxStreamWait
	}
	if half := s.cfg.RequestTimeout / 2; s.cfg.RequestTimeout > 0 && wait > half {
		wait = half
	}
	return wait, nil
}

// pollDone reports whether a long-poll must answer now: its deadline passed
// or the server is going down.
func (s *Server) pollDone(deadline time.Time) bool {
	select {
	case <-s.closing:
		return true
	default:
		return !time.Now().Before(deadline)
	}
}

// awaitChange parks a long-poll until changed closes, the deadline passes
// or the server starts going down. It returns the request context's error
// when the client goes away first.
func (s *Server) awaitChange(r *http.Request, changed <-chan struct{}, deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-changed:
	case <-timer.C:
	case <-s.closing:
	case <-r.Context().Done():
		return r.Context().Err()
	}
	return nil
}

// handleReplWorkspaces lists the workspaces with their journal positions
// and the leader-wide change version, read before the list is built. A
// request carrying ?since is held (up to ?wait) until the version differs
// from since, so a follower learns of any write, create or delete with one
// request instead of polling every workspace. A change answers it at once.
func (s *Server) handleReplWorkspaces(w http.ResponseWriter, r *http.Request) {
	if s.dcfg == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("server is memory-only; replication needs a data directory"))
		return
	}
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since parameter: %w", err))
			return
		}
		since = v
	}
	wait, err := s.streamWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	deadline := time.Now().Add(wait)

	for {
		version, changed := s.changes.watch()
		if since == 0 || version != since || s.pollDone(deadline) {
			writeJSON(w, http.StatusOK, s.replList(version))
			return
		}
		if err := s.awaitChange(r, changed, deadline); err != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
	}
}

// replList lists the journaled workspaces' positions under version.
func (s *Server) replList(version uint64) replication.ListResponse {
	out := replication.ListResponse{Workspaces: []replication.WorkspaceStatus{}, Version: version}
	for _, ws := range s.manager.List() {
		if ws.persist == nil {
			continue
		}
		out.Workspaces = append(out.Workspaces, replication.WorkspaceStatus{
			Name:    ws.name,
			Seq:     ws.persist.j.Seq(),
			Horizon: ws.persist.j.CompactedThrough(),
		})
	}
	return out
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	ws, _, ok := s.replWorkspace(w, r)
	if !ok {
		return
	}
	state, seq, err := s.captureState(ws)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Encoded compact, not through writeJSON: indentation would rewrite the
	// State bytes in flight and the checksum is over the exact bytes.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(replication.Snapshot{
		Seq:   seq,
		CRC32: replication.ChecksumState(state),
		State: state,
	})
}

// handleReplRecords streams the journal tail after ?from as raw frame
// lines. When the reader is caught up and sent ?wait, the handler holds the
// request open until an append or a reset (a follower's re-bootstrap, which
// answers 410) lands or the wait expires.
func (s *Server) handleReplRecords(w http.ResponseWriter, r *http.Request) {
	_, j, ok := s.replWorkspace(w, r)
	if !ok {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad from parameter: %w", err))
		return
	}
	wait, err := s.streamWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	deadline := time.Now().Add(wait)

	for {
		// Arm the change signal before reading the tail: an append landing
		// between the read and the select still wakes the wait.
		changed := j.Changed()
		data, horizon, last, err := j.TailSince(from)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		if from < horizon {
			writeError(w, http.StatusGone,
				fmt.Errorf("records through %d were compacted away; fetch a snapshot", horizon))
			return
		}
		if len(data) > 0 || s.pollDone(deadline) {
			w.Header().Set(replication.HeaderSeq, strconv.FormatUint(last, 10))
			w.Header().Set(replication.HeaderHorizon, strconv.FormatUint(horizon, 10))
			w.Header().Set(replication.HeaderOffset, strconv.FormatInt(j.Offset(), 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		if err := s.awaitChange(r, changed, deadline); err != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
	}
}

// --- promotion ---

// handlePromote turns a follower into a leader: the sync loop is halted and
// waited out, then every replica workspace is re-armed for writes — the
// journal hooks onto the store and queue, the recovered job table restored
// (leader-queued jobs start executing here, leader-running jobs come back
// interrupted), the compaction loop started. Explicit and manual by design:
// the operator (or their failover tooling) decides when the old leader is
// really gone.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	// The claim flag serializes concurrent promotions without holding a
	// lock across the transition's journal re-arming. s.follow stays set
	// until every workspace is re-armed, so the write gate holds for the
	// whole transition.
	if !s.promoting.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, fmt.Errorf("a promotion is already in progress"))
		return
	}
	defer s.promoting.Store(false)
	f := s.follow.Load()
	if f == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("already the leader"))
		return
	}
	// A stale replica holds journaled records it could not apply; as a
	// leader it would serve state missing them and fail its next restart.
	// Only a bootstrap clears the mark, so it cannot appear after this check.
	for _, ws := range s.manager.List() {
		if rep := ws.replica.Load(); rep != nil && rep.isStale() {
			writeError(w, http.StatusConflict,
				fmt.Errorf("workspace %q is waiting to re-bootstrap from the leader; promote another follower", ws.name))
			return
		}
	}
	f.halt(true)

	// Latch before re-arming: workspaces created from here on (and the
	// re-armed replicas below) are leader workspaces — they journal their own
	// mutations and enforce the write-plane quotas.
	s.promoted.Store(true)

	requeued, interrupted := 0, 0
	for _, ws := range s.manager.List() {
		rep := ws.replica.Load()
		if rep == nil || ws.persist == nil {
			continue
		}
		rep.mu.Lock()
		jobs := rep.table
		rep.mu.Unlock()
		ws.replica.Store(nil)
		ws.store.SetMaxSchemas(s.limits.MaxSchemas)
		ws.queue.SetMaxJobs(s.limits.MaxJobs)
		rq, ir := s.armJournal(ws, ws.persist.j, jobs)
		requeued += rq
		interrupted += ir
	}
	s.follow.Store(nil)
	if s.log != nil {
		s.log.Info("promoted to leader", "previousLeader", f.leader,
			"requeuedJobs", requeued, "interruptedJobs", interrupted)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"role":            "leader",
		"previousLeader":  f.leader,
		"requeuedJobs":    requeued,
		"interruptedJobs": interrupted,
	})
}
