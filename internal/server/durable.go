package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/journal"
)

// The journaled operations. Store mutations are written ahead of being
// applied; job records trace each job's lifecycle (a job whose trace stops
// at "submitted" is re-enqueued on recovery, one stopped at "started"
// comes back interrupted).
const (
	opAddSchemas   = "add_schemas"
	opRemoveSchema = "remove_schema"
	opDeclareEquiv = "declare_equiv"
	opAssert       = "assert"
	opRetract      = "retract"
	opJobSubmit    = "job_submit"
	opJobStart     = "job_start"
	opJobFinish    = "job_finish"
	// opSaveIntegration persists one integration result (materialized
	// schema + mapping table); opLoadRows persists one accepted instance-row
	// batch. Together they make the federated query layer durable.
	opSaveIntegration = "save_integration"
	opLoadRows        = "load_rows"
	// opSetKeys replaces the API-key set (hashes only, never tokens). It
	// rides the default workspace's journal so followers replicate and
	// enforce the same keys; last record wins on replay.
	opSetKeys = "set_keys"
)

// Per-workspace on-disk layout: each workspace keeps its own journal and
// snapshot under <data-dir>/<name>/. The per-directory format is identical
// to the old single-tenant layout, so migrating a legacy data directory is
// a pure file move (see migrateLegacyLayout). Dot-prefixed directory names
// are reserved for the server's own bookkeeping: ".migrate-*" stages a
// layout migration, ".trash-*" stages a workspace delete.
const (
	legacyJournalFile  = "journal.jsonl"
	legacySnapshotFile = "snapshot.json"
	migrateStagingDir  = ".migrate-" + DefaultWorkspace
	trashPrefix        = ".trash-"
)

type addSchemasRec struct {
	// Schemas carries each schema in the ECR JSON encoding.
	Schemas []json.RawMessage `json:"schemas"`
}

type removeSchemaRec struct {
	Name string `json:"name"`
}

type declareEquivRec struct {
	Schema1 string `json:"schema1"`
	Attr1   string `json:"attr1"`
	Schema2 string `json:"schema2"`
	Attr2   string `json:"attr2"`
}

type assertRec struct {
	Schema1 string `json:"schema1"`
	Object1 string `json:"object1"`
	Code    int    `json:"code"`
	Schema2 string `json:"schema2"`
	Object2 string `json:"object2"`
	Rel     bool   `json:"rel,omitempty"`
}

type retractRec struct {
	Schema1 string `json:"schema1"`
	Object1 string `json:"object1"`
	Schema2 string `json:"schema2"`
	Object2 string `json:"object2"`
	Rel     bool   `json:"rel,omitempty"`
}

// saveIntegrationRec persists one integration result under a name: the
// integrated schema and the mapping table, both materialized to JSON, so
// replay installs them verbatim without re-running the integration.
type saveIntegrationRec struct {
	Name    string          `json:"name"`
	Schema1 string          `json:"schema1"`
	Schema2 string          `json:"schema2"`
	Schema  json.RawMessage `json:"schema"`
	Table   json.RawMessage `json:"table"`
}

// loadRowsRec persists one accepted row batch; batches are validated before
// journaling, so replaying them in order always succeeds.
type loadRowsRec struct {
	Schema    string         `json:"schema"`
	Structure string         `json:"structure"`
	Rows      []instance.Row `json:"rows"`
}

type jobSubmitRec struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
	Created time.Time  `json:"created"`
}

type jobStartRec struct {
	ID      string    `json:"id"`
	Started time.Time `json:"started"`
}

type jobFinishRec struct {
	ID       string             `json:"id"`
	State    JobState           `json:"state"`
	Error    string             `json:"error,omitempty"`
	Result   *IntegrationResult `json:"result,omitempty"`
	Finished time.Time          `json:"finished"`
}

// persistedState is the snapshot body: the full workspace (in the saved-
// workspace encoding the interactive tool also uses) plus the job table,
// the federation state (saved integrations and the row-batch log), and —
// default workspace only — the journaled API-key hashes, so a compacted
// journal (or a shipped snapshot) still carries the key set.
type persistedState struct {
	Workspace    json.RawMessage      `json:"workspace,omitempty"`
	Jobs         []Job                `json:"jobs,omitempty"`
	NextJobID    int                  `json:"nextJobId"`
	Keys         []apiKeyEntry        `json:"keys,omitempty"`
	Integrations []saveIntegrationRec `json:"integrations,omitempty"`
	Rows         []loadRowsRec        `json:"rows,omitempty"`
}

// DurabilityConfig parameterizes the server's journals.
type DurabilityConfig struct {
	// Dir is the data directory; each workspace journals into its own
	// subdirectory Dir/<name>/. Required.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync journal.SyncPolicy
	// SyncInterval spaces fsyncs under journal.SyncInterval.
	SyncInterval time.Duration
	// SnapshotEvery compacts a workspace's journal into a fresh snapshot
	// after this many appended records (default 256).
	SnapshotEvery int
	// Hooks injects faults (tests only). Shared by every workspace journal.
	Hooks journal.Hooks
}

// WorkspaceRecovery reports what Open rebuilt for one workspace.
type WorkspaceRecovery struct {
	Name string `json:"name"`
	// SnapshotSeq is the sequence number the loaded snapshot covered (0
	// when none existed).
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// ReplayedRecords counts journal records applied on top.
	ReplayedRecords int `json:"replayedRecords"`
	// DroppedBytes counts torn/corrupt tail bytes discarded.
	DroppedBytes int64 `json:"droppedBytes"`
	// Schemas counts schemas in the rebuilt workspace.
	Schemas int `json:"schemas"`
	// RecoveredJobs counts job records rebuilt into the job table.
	RecoveredJobs int `json:"recoveredJobs"`
	// RequeuedJobs were queued at crash time and run again now.
	RequeuedJobs int `json:"requeuedJobs"`
	// InterruptedJobs were running at crash time; they are terminal with
	// a retryable error.
	InterruptedJobs int `json:"interruptedJobs"`
}

// RecoveryReport summarizes what Open rebuilt from the data directory:
// per-workspace details plus aggregates over all of them.
type RecoveryReport struct {
	// Workspaces details each recovered workspace, sorted by name.
	Workspaces []WorkspaceRecovery `json:"workspaces,omitempty"`
	// MigratedLegacyLayout is true when a pre-workspace (single-tenant)
	// data directory was migrated into the default workspace's
	// subdirectory on this start.
	MigratedLegacyLayout bool `json:"migratedLegacyLayout,omitempty"`
	// SnapshotSeq is the highest snapshot sequence loaded in any workspace.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// ReplayedRecords counts journal records applied across all workspaces.
	ReplayedRecords int `json:"replayedRecords"`
	// DroppedBytes counts torn/corrupt tail bytes discarded across all
	// workspaces.
	DroppedBytes int64 `json:"droppedBytes"`
	// RecoveredWorkspaces counts workspaces that came back holding state
	// (schemas or jobs).
	RecoveredWorkspaces int `json:"recoveredWorkspaces"`
	// Schemas counts schemas across every rebuilt workspace.
	Schemas int `json:"schemas"`
	// RecoveredJobs counts job records rebuilt across every workspace.
	RecoveredJobs int `json:"recoveredJobs"`
	// RequeuedJobs were queued at crash time and run again now.
	RequeuedJobs int `json:"requeuedJobs"`
	// InterruptedJobs were running at crash time; they are terminal with
	// a retryable error.
	InterruptedJobs int `json:"interruptedJobs"`
}

func (r *RecoveryReport) absorb(wr WorkspaceRecovery) {
	r.Workspaces = append(r.Workspaces, wr)
	if wr.SnapshotSeq > r.SnapshotSeq {
		r.SnapshotSeq = wr.SnapshotSeq
	}
	r.ReplayedRecords += wr.ReplayedRecords
	r.DroppedBytes += wr.DroppedBytes
	r.Schemas += wr.Schemas
	r.RecoveredJobs += wr.RecoveredJobs
	r.RequeuedJobs += wr.RequeuedJobs
	r.InterruptedJobs += wr.InterruptedJobs
	if wr.Schemas > 0 || wr.RecoveredJobs > 0 {
		r.RecoveredWorkspaces++
	}
}

// Open builds a durable Server from a data directory: it migrates a legacy
// single-tenant layout into the default workspace if needed, then rebuilds
// every workspace subdirectory — each from its own snapshot + journal tail,
// re-enqueuing jobs that were still queued and marking jobs that were
// running as interrupted — and returns the server with write-ahead
// journaling armed on every workspace's mutating paths. cfg.Store is
// ignored: the data directory is authoritative.
func Open(cfg Config, dcfg DurabilityConfig) (*Server, *RecoveryReport, error) {
	if dcfg.Dir == "" {
		return nil, nil, fmt.Errorf("server: durability needs a data directory")
	}
	if dcfg.SnapshotEvery <= 0 {
		dcfg.SnapshotEvery = 256
	}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: create data directory: %w", err)
	}

	report := &RecoveryReport{}
	migrated, err := migrateLegacyLayout(dcfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	report.MigratedLegacyLayout = migrated
	sweepTrash(dcfg.Dir)

	names, err := scanWorkspaceDirs(dcfg.Dir)
	if err != nil {
		return nil, nil, err
	}

	s := newServer(cfg.withDefaults(), &dcfg)
	for _, name := range names {
		ws, wr, err := s.recoverWorkspace(name)
		if err != nil {
			s.closeAllJournals()
			return nil, nil, fmt.Errorf("server: recover workspace %q: %w", name, err)
		}
		if err := s.manager.adopt(ws); err != nil {
			// Unreachable: directory names are unique.
			s.closeAllJournals()
			return nil, nil, err
		}
		report.absorb(wr)
	}
	if _, err := s.manager.Get(DefaultWorkspace); err != nil {
		if _, err := s.manager.Create(DefaultWorkspace); err != nil {
			s.closeAllJournals()
			return nil, nil, fmt.Errorf("server: create default workspace: %w", err)
		}
	}

	s.metrics.SetDurability(report.RecoveredWorkspaces, report.RecoveredJobs)
	if s.cfg.Follow != nil {
		if err := s.startFollowing(); err != nil {
			s.closeAllJournals()
			return nil, nil, err
		}
	}
	return s, report, nil
}

// migrateLegacyLayout moves a pre-workspace data directory's top-level
// journal.jsonl/snapshot.json into the default workspace's subdirectory.
// The move is staged through .migrate-default and committed with one atomic
// rename, so a crash at any step leaves a state this function repairs on
// the next start. A directory holding both top-level legacy files and a
// default/ subdirectory is ambiguous and rejected with instructions rather
// than risk silently dropping either copy.
func migrateLegacyLayout(dir string) (bool, error) {
	legacy := false
	for _, f := range []string{legacyJournalFile, legacySnapshotFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			legacy = true
		}
	}
	staging := filepath.Join(dir, migrateStagingDir)
	_, stagingErr := os.Stat(staging)
	staged := stagingErr == nil
	if !legacy && !staged {
		return false, nil
	}
	target := filepath.Join(dir, DefaultWorkspace)
	if _, err := os.Stat(target); err == nil {
		return false, fmt.Errorf(
			"server: data directory %s holds both a legacy single-tenant journal (%s/%s at the top level) and a %q workspace directory; "+
				"keep one: move the top-level files aside (or delete them) to use the workspace layout, or remove the %q directory to migrate the legacy journal",
			dir, legacyJournalFile, legacySnapshotFile, DefaultWorkspace, DefaultWorkspace)
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return false, fmt.Errorf("server: stage legacy migration: %w", err)
	}
	for _, f := range []string{legacyJournalFile, legacySnapshotFile} {
		err := os.Rename(filepath.Join(dir, f), filepath.Join(staging, f))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("server: stage legacy %s: %w", f, err)
		}
	}
	if err := os.Rename(staging, target); err != nil {
		return false, fmt.Errorf("server: commit legacy migration: %w", err)
	}
	return true, nil
}

// sweepTrash clears .trash-* directories left by deletes that crashed
// between the rename and the removal. Best-effort: a leftover trash dir is
// invisible to recovery either way.
func sweepTrash(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), trashPrefix) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// scanWorkspaceDirs lists the workspace subdirectories of the data
// directory, sorted by name. Dot-prefixed names are the server's own
// bookkeeping and skipped; any other name that fails validation is
// someone else's data and rejected with instructions.
func scanWorkspaceDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: scan data directory: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if err := ValidateWorkspaceName(e.Name()); err != nil {
			return nil, fmt.Errorf(
				"server: data directory entry %q is not a valid workspace name (%v); move it out of %s or rename it",
				e.Name(), err, dir)
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// restoredState is a snapshot rebuilt off to the side: a private store
// holding the workspace and its federation state, the job table, and — for
// the default workspace — the key set. Nothing live changes until the
// caller installs it, so a snapshot that cannot be rebuilt leaves the
// workspace exactly as it was.
type restoredState struct {
	store *Store
	jobs  *jobTable
	keys  *keySet // nil unless the default workspace's snapshot carries keys
}

// restoreState decodes a snapshot body for the named workspace; an empty
// body restores an empty workspace. The leader's snapshot wire format IS
// the snapshot file format, so recovery (which builds the workspace around
// the result) and replica bootstrap (which installs it into the live
// workspace) share this one path.
func (s *Server) restoreState(name string, state []byte) (*restoredState, error) {
	var ps persistedState
	if len(state) > 0 {
		if err := json.Unmarshal(state, &ps); err != nil {
			return nil, fmt.Errorf("decode snapshot state: %w", err)
		}
	}
	st, err := restoreStore(&ps)
	if err != nil {
		return nil, err
	}
	rs := &restoredState{store: st, jobs: newJobTable(ps.Jobs, ps.NextJobID)}
	if name == DefaultWorkspace && len(ps.Keys) > 0 {
		if rs.keys, err = buildKeySet(ps.Keys, s.limits); err != nil {
			return nil, fmt.Errorf("snapshot key set: %w", err)
		}
	}
	return rs, nil
}

// recoverWorkspace rebuilds one workspace from its subdirectory: snapshot
// first, then the journal tail, then the job table is restored into the
// fresh queue (re-enqueueing still-queued jobs) with journaling armed — or,
// on a follower, stashed as the replica state with the apply loop taking
// over where the journal ends. A record that fails to replay fails a
// leader's recovery; a follower keeps what did replay and re-bootstraps
// the workspace from the leader.
//
//sit:replay
func (s *Server) recoverWorkspace(name string) (*Workspace, WorkspaceRecovery, error) {
	wr := WorkspaceRecovery{Name: name}
	j, err := journal.Open(filepath.Join(s.dcfg.Dir, name), journal.Options{
		Sync: s.dcfg.Sync, SyncInterval: s.dcfg.SyncInterval, Hooks: s.dcfg.Hooks,
	})
	if err != nil {
		return nil, wr, err
	}
	state, seq, _ := j.Snapshot()
	rs, err := s.restoreState(name, state)
	if err != nil {
		j.Close()
		return nil, wr, err
	}
	wr.SnapshotSeq = seq
	if rs.keys != nil {
		s.installKeys(rs.keys)
	}

	// The key set rides the default workspace's journal only; a keys hook on
	// any other workspace would silently eat a corrupt record.
	var keysHook func([]apiKeyEntry) error
	if name == DefaultWorkspace {
		keysHook = s.applyJournaledKeys
	}
	applied := seq
	for _, rec := range j.Records() {
		if err := applyRecord(rs.store, rs.jobs, keysHook, rec); err != nil {
			err = fmt.Errorf("replay journal record %d (%s): %w", rec.Seq, rec.Op, err)
			if !s.followerAtBuild() {
				j.Close()
				return nil, wr, err
			}
			// A follower's journal is a copy of the leader's: start from
			// what did replay, and let the first sync round rebuild the
			// workspace from the leader's snapshot (armReplica sees the
			// journal ahead of applied).
			if s.log != nil {
				s.log.Warn("replica will re-bootstrap from the leader", "workspace", name, "error", err)
			}
			break
		}
		applied = rec.Seq
		wr.ReplayedRecords++
	}
	wr.DroppedBytes = j.DroppedBytes()
	wr.Schemas = len(rs.store.SchemaNames())
	wr.RecoveredJobs = len(rs.jobs.jobs)

	ws := s.newWorkspaceFrom(name, rs.store)
	if s.followerAtBuild() {
		s.armReplica(ws, j, rs.jobs, applied)
	} else {
		wr.RequeuedJobs, wr.InterruptedJobs = s.armJournal(ws, j, rs.jobs)
	}
	return ws, wr, nil
}

// applyRecord replays one journal record against a store and job table
// that are not journaling (recovery's rebuilt workspace, or a follower
// replica applying a frame it has already journaled), so nothing is
// re-journaled. keys, when non-nil, receives op_set_keys payloads — wired
// only for the default workspace, whose journal carries the key set.
//
//sit:replay
func applyRecord(store *Store, jobs *jobTable, keys func([]apiKeyEntry) error, rec journal.Record) error {
	switch rec.Op {
	case opJobSubmit, opJobStart, opJobFinish:
		return jobs.apply(rec)
	case opSetKeys:
		if keys == nil {
			return fmt.Errorf("set_keys record outside the default workspace's journal")
		}
		var r setKeysRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		return keys(r.Keys)
	case opAddSchemas:
		var r addSchemasRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		schemas := make([]*ecr.Schema, 0, len(r.Schemas))
		for _, raw := range r.Schemas {
			s, err := ecr.DecodeJSON(raw)
			if err != nil {
				return err
			}
			schemas = append(schemas, s)
		}
		_, err := store.AddSchemas(schemas)
		return err
	case opRemoveSchema:
		var r removeSchemaRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		_, err := store.RemoveSchema(r.Name)
		return err
	case opDeclareEquiv:
		var r declareEquivRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		return store.DeclareEquivalence(r.Schema1, r.Attr1, r.Schema2, r.Attr2)
	case opAssert:
		var r assertRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		_, _, err := store.Assert(r.Schema1, r.Object1, r.Code, r.Schema2, r.Object2, r.Rel)
		return err
	case opRetract:
		var r retractRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		_, err := store.Retract(r.Schema1, r.Object1, r.Schema2, r.Object2, r.Rel)
		return err
	case opSaveIntegration:
		var r saveIntegrationRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		return store.applySaveIntegration(r)
	case opLoadRows:
		var r loadRowsRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		return store.applyLoadRows(r)
	}
	return fmt.Errorf("unknown operation")
}

// jobTable is a workspace's job table as its journal describes it: every
// job in submission order, an index by ID, and the highest job number
// issued. Recovery rebuilds one from a snapshot plus the journal tail, a
// follower replica keeps one current from the leader's stream, and either
// way it is what Queue.Restore seeds a writable queue from.
type jobTable struct {
	jobs   []Job
	byID   map[string]int
	nextID int
}

func newJobTable(jobs []Job, nextID int) *jobTable {
	t := &jobTable{jobs: jobs, byID: make(map[string]int, len(jobs)), nextID: nextID}
	for i, job := range jobs {
		t.byID[job.ID] = i
	}
	return t
}

// apply replays one job record: a submit adds a queued job, a start or a
// finish moves the job it names along.
func (t *jobTable) apply(rec journal.Record) error {
	switch rec.Op {
	case opJobSubmit:
		var r jobSubmitRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		if _, ok := t.byID[r.ID]; ok {
			// The snapshot already holds this job: it was submitted while a
			// compaction ran, after the snapshot's cutoff sequence was read
			// but before the queue state was captured, so its submit record
			// survived the rewrite too. The snapshot's copy is at least as
			// fresh; replaying the submit again would duplicate the job.
			return nil
		}
		t.byID[r.ID] = len(t.jobs)
		t.jobs = append(t.jobs, Job{ID: r.ID, Request: r.Request, State: JobQueued, Created: r.Created})
		if n, err := strconv.Atoi(strings.TrimPrefix(r.ID, "job-")); err == nil && n > t.nextID {
			t.nextID = n
		}
	case opJobStart:
		var r jobStartRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		if i, ok := t.byID[r.ID]; ok {
			t.jobs[i].State = JobRunning
			t.jobs[i].Started = &r.Started
		}
	case opJobFinish:
		var r jobFinishRec
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		if i, ok := t.byID[r.ID]; ok {
			t.jobs[i].State = r.State
			t.jobs[i].Error = r.Error
			t.jobs[i].Result = r.Result
			t.jobs[i].Finished = &r.Finished
		}
	default:
		return fmt.Errorf("%s is not a job operation", rec.Op)
	}
	return nil
}

// persister owns one workspace's side of its journal: the compaction loop
// and the shutdown/crash teardown.
type persister struct {
	j     *journal.Journal
	every int
	stop  chan struct{}
	done  chan struct{}
	// started records whether the compaction loop goroutine was launched.
	// Follower replicas hold a persister (the journal and teardown are the
	// same) but compact synchronously from the apply loop instead; their
	// loop starts only on promotion.
	started  atomic.Bool
	stopOnce sync.Once
}

// stopLoop halts the compaction loop and waits for it to exit; safe to
// call more than once (Shutdown, Delete and Kill all may). A loop that was
// never started (follower replicas) has nothing to wait for.
func (p *persister) stopLoop() {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.started.Load() {
		<-p.done
	}
}

// openWorkspaceJournal provisions a brand-new workspace's journal directory
// (Create on a durable server) and arms journaling on it — or, on a
// follower (a workspace discovered on the leader), the replica state.
func (s *Server) openWorkspaceJournal(ws *Workspace) error {
	dir := filepath.Join(s.dcfg.Dir, ws.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: create workspace directory: %w", err)
	}
	j, err := journal.Open(dir, journal.Options{
		Sync: s.dcfg.Sync, SyncInterval: s.dcfg.SyncInterval, Hooks: s.dcfg.Hooks,
	})
	if err != nil {
		return err
	}
	if s.followerAtBuild() {
		s.armReplica(ws, j, newJobTable(nil, 0), 0)
	} else {
		s.armJournal(ws, j, newJobTable(nil, 0))
	}
	return nil
}

// armJournal wires a workspace's journal into its store and queue, restores
// the recovered job table (re-enqueueing still-queued jobs, which may start
// executing — and journaling — immediately, which is why the hooks are
// armed first), and starts the compaction loop.
func (s *Server) armJournal(ws *Workspace, j *journal.Journal, jobs *jobTable) (requeued, interrupted int) {
	p := &persister{j: j, every: s.dcfg.SnapshotEvery, stop: make(chan struct{}), done: make(chan struct{})}
	ws.persist = p

	j.SetObserver(func(fsync time.Duration, err error) {
		s.metrics.ObserveJournalAppend(fsync, err)
	})
	j.SetOnChange(s.changes.bump)
	appendFn := func(op string, v any) error {
		_, err := j.Append(op, v)
		return err
	}
	ws.store.SetPersist(appendFn)
	ws.queue.SetPersist(appendFn, func(err error) {
		if s.log != nil {
			s.log.Error("journal append", "workspace", ws.name, "error", err)
		}
	})
	requeued, interrupted = ws.queue.Restore(jobs)
	p.started.Store(true)
	go p.loop(s, ws)
	return requeued, interrupted
}

// loop compacts the workspace's journal into a fresh snapshot whenever
// enough records have accumulated.
func (p *persister) loop(s *Server, ws *Workspace) {
	defer close(p.done)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			if p.j.SinceCompact() >= uint64(p.every) {
				if err := s.compactWorkspace(ws); err != nil && s.log != nil {
					s.log.Error("compact", "workspace", ws.name, "error", err)
				}
			}
		}
	}
}

// compactWorkspace snapshots one workspace's full state (schemas + job
// table) and truncates its journal to the records the snapshot does not
// cover. Safe to call concurrently with traffic: the state is captured
// atomically under the store lock, records appended after the capture
// carry higher sequence numbers, so the rewrite keeps them and replay —
// which is idempotent for job records — stays correct. The journal
// rewrite itself runs after the store lock is released: Compact fsyncs
// and rewrites files, and holding st.mu across that would stall every
// request on the workspace for the disk's milliseconds. Two captures
// racing to Compact resolve inside the journal, which refuses to publish
// a snapshot older than the one it already has.
func (s *Server) compactWorkspace(ws *Workspace) error {
	if ws.persist == nil {
		return nil
	}
	state, uptoSeq, err := s.captureState(ws)
	if err != nil {
		return err
	}
	if err := ws.persist.j.Compact(state, uptoSeq); err != nil {
		return err
	}
	s.metrics.ObserveCompaction()
	return nil
}

// captureState encodes the workspace's full persisted state together with
// the journal sequence number it reflects: compaction's input on leaders
// and replicas alike, and what the replication snapshot endpoint ships.
// Only the source of the sequence number and of the job table depends on
// the role. A leader reads both under the store lock; a replica reads them
// under the replica lock, which the apply loop holds across each record,
// so the state is exact for appliedSeq.
func (s *Server) captureState(ws *Workspace) (state []byte, uptoSeq uint64, err error) {
	var ps persistedState
	st := ws.store
	if rep := ws.replica.Load(); rep != nil {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		uptoSeq = rep.appliedSeq
		ps.Jobs, ps.NextJobID = append([]Job(nil), rep.table.jobs...), rep.table.nextID
		st.mu.Lock()
	} else {
		st.mu.Lock()
		// Order matters: read the sequence number first, then capture state.
		// Every record at or below uptoSeq is fully reflected in the captured
		// state; records landing after the read are preserved by Compact.
		uptoSeq = ws.persist.j.Seq()
		ps.Jobs, ps.NextJobID = ws.queue.snapshotState()
	}
	err = st.captureLocked(&ps)
	st.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	// Order matters: read the key set after the sequence number. A leader
	// updates its keys before journaling the set_keys record, and a replica
	// installs a replicated set while holding rep.mu (still held here), so
	// every set_keys record at or below uptoSeq is in the keys read now. A
	// key set read before uptoSeq could miss one that Compact then drops,
	// bringing revoked keys back after a restart.
	ps.Keys = s.snapshotKeys(ws.name)
	if state, err = json.Marshal(ps); err != nil {
		return nil, 0, err
	}
	return state, uptoSeq, nil
}

// Compact snapshots every workspace, returning the first error.
func (s *Server) Compact() error {
	var first error
	for _, ws := range s.manager.List() {
		if err := s.compactWorkspace(ws); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeAllJournals abruptly releases every workspace journal (Open error
// paths only — no compaction, no sync).
func (s *Server) closeAllJournals() {
	for _, ws := range s.manager.List() {
		if ws.persist != nil {
			ws.persist.stopLoop()
			ws.persist.j.CloseAbrupt()
		}
		ws.queue.Kill()
	}
}

// removeWorkspaceDir deletes a workspace's data subdirectory crash-safely:
// the directory is renamed into a dot-prefixed trash name first — atomic,
// and invisible to the recovery scan — then removed, so a crash mid-delete
// can never leave a half-deleted workspace that recovery would resurrect.
func removeWorkspaceDir(root, name string) error {
	dir := filepath.Join(root, name)
	trash := filepath.Join(root, trashPrefix+name)
	if err := os.RemoveAll(trash); err != nil {
		return err
	}
	if err := os.Rename(dir, trash); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	return os.RemoveAll(trash)
}

// Journal exposes the default workspace's journal (tests, diagnostics);
// nil when the server is not durable.
func (s *Server) Journal() *journal.Journal {
	ws, err := s.manager.Get(DefaultWorkspace)
	if err != nil || ws.persist == nil {
		return nil
	}
	return ws.persist.j
}

// Kill tears the server down as a crash would: no drain, no final
// compaction, no journal sync. Every workspace's data directory is left
// exactly as its write-ahead log put it — which is the point; tests
// restart from it.
func (s *Server) Kill() {
	s.startClosing()
	s.mu.Lock()
	srv, ln := s.httpSrv, s.listener
	s.httpSrv, s.listener = nil, nil
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	} else if ln != nil {
		ln.Close()
	}
	// Signal the follower loop but do not wait: a crash doesn't drain. The
	// loop's in-flight applies fail harmlessly against the closed journals.
	if f := s.follow.Load(); f != nil {
		f.halt(false)
	}
	for _, ws := range s.manager.List() {
		if ws.persist != nil {
			ws.persist.stopLoop()
			// Close the journal fd first: any worker still finishing a job
			// fails its append harmlessly instead of writing past the
			// "crash".
			ws.persist.j.CloseAbrupt()
		}
		ws.queue.Kill()
	}
}
