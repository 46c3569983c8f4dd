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
	// PollInterval paces the sync loop when it has nothing to apply
	// (default 100ms). The loop long-polls the leader's record stream, so
	// steady-state replication lag is bounded by network latency, not by
	// this interval.
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

// maxStreamWait caps how long the leader-side record stream long-polls
// before answering with an empty batch, keeping it safely inside the
// request timeout.
const maxStreamWait = 25 * time.Second

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
// replica: the journal is held by a persister for teardown and observation,
// but nothing journals through the store or queue — every append flows
// through the replication apply path — and the compaction loop stays
// parked (the sync loop compacts synchronously; promotion starts the loop).
func (s *Server) armReplica(ws *Workspace, j *journal.Journal, jobs *jobTable) {
	ws.persist = &persister{j: j, every: s.dcfg.SnapshotEvery, stop: make(chan struct{}), done: make(chan struct{})}
	j.SetObserver(func(fsync time.Duration, err error) {
		s.metrics.ObserveJournalAppend(fsync, err)
	})
	ws.replica.Store(&replicaState{table: jobs, appliedSeq: j.Seq()})
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

// followLoop drives rounds of syncRound until halted, sleeping the poll
// interval only when a round applied nothing without having long-polled
// (multi-workspace rounds) or failed (leader down, network partition).
func (s *Server) followLoop(f *followState) {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		applied, longPolled, err := s.syncRound(f)
		if err != nil {
			f.syncErrors.Add(1)
			if s.log != nil {
				s.log.Warn("replication sync", "leader", f.leader, "error", err)
			}
		}
		if err != nil || (applied == 0 && !longPolled) {
			select {
			case <-f.stop:
				return
			case <-time.After(f.poll):
			}
		}
	}
}

// syncRound reconciles the follower against the leader once: mirror the
// workspace set (create what the leader has, drop what it no longer does),
// then advance every workspace's replica by one SyncWorkspace round. With a
// single workspace the record fetch long-polls, so a quiet leader costs one
// held-open request per wait instead of a poll per interval.
func (s *Server) syncRound(f *followState) (applied int, longPolled bool, err error) {
	list, err := f.client.Workspaces(f.ctx)
	if err != nil {
		return 0, false, err
	}

	leaderHas := make(map[string]bool, len(list))
	wait := time.Duration(0)
	if len(list) == 1 {
		// One workspace: long-poll the record stream (50 poll intervals,
		// capped under the leader's request timeout) so a quiet leader costs
		// one held-open request instead of a poll per interval.
		longPolled = true
		wait = 50 * f.poll
		if wait > maxStreamWait/2 {
			wait = maxStreamWait / 2
		}
	}
	var firstErr error
	for _, stat := range list {
		leaderHas[stat.Name] = true
		if _, err := s.ensureReplicaWorkspace(stat.Name); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("workspace %q: %w", stat.Name, err)
			}
			continue
		}
		p, err := replication.SyncWorkspace(f.ctx, f.client, followerTarget{s}, stat.Name, wait)
		if err != nil {
			if errors.Is(err, replication.ErrNoWorkspace) {
				continue // deleted on the leader between the list and the sync
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		applied += p.Applied
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
			}
		}
	}
	return applied, longPolled, firstErr
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
	rep.table, rep.appliedSeq = rs.jobs, snap.Seq
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

func (s *Server) handleReplWorkspaces(w http.ResponseWriter, r *http.Request) {
	if s.dcfg == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("server is memory-only; replication needs a data directory"))
		return
	}
	out := replication.ListResponse{Workspaces: []replication.WorkspaceStatus{}}
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
	writeJSON(w, http.StatusOK, out)
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
// lines. When the follower is caught up and sent ?wait, the handler holds
// the request open until an append lands or the wait expires — long-polling
// keeps steady-state lag at network latency without a busy poll.
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
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait parameter %q", raw))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > maxStreamWait {
		wait = maxStreamWait
	}
	if half := s.cfg.RequestTimeout / 2; s.cfg.RequestTimeout > 0 && wait > half {
		wait = half
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
		remaining := time.Until(deadline)
		if len(data) > 0 || remaining <= 0 {
			w.Header().Set(replication.HeaderSeq, strconv.FormatUint(last, 10))
			w.Header().Set(replication.HeaderHorizon, strconv.FormatUint(horizon, 10))
			w.Header().Set(replication.HeaderOffset, strconv.FormatInt(j.Offset(), 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-changed:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
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
