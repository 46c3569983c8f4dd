package server

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the integration latency
// histogram; the implicit last bucket is +Inf.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64 // guarded by mu
	sum    float64  // guarded by mu
	n      uint64   // guarded by mu
}

// NewHistogram returns a histogram over latencyBuckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(latencyBuckets, secs)
	h.counts[i]++
	h.sum += secs
	h.n++
}

// Mean returns the average observed duration in seconds, or 0 when the
// histogram is empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	// Buckets maps each upper bound (seconds; the final entry is +Inf,
	// rendered "inf") to the cumulative observation count at or under it.
	Buckets []BucketCount `json:"buckets"`
	Count   uint64        `json:"count"`
	SumSecs float64       `json:"sumSeconds"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot renders the histogram with cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{Count: h.n, SumSecs: h.sum}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := "inf"
		if i < len(latencyBuckets) {
			le = formatBound(latencyBuckets[i])
		}
		snap.Buckets = append(snap.Buckets, BucketCount{LE: le, Count: cum})
	}
	return snap
}

func formatBound(b float64) string {
	if b >= 1 && b == float64(int64(b)) {
		return strconv.FormatInt(int64(b), 10) + "s"
	}
	return strconv.FormatInt(int64(b*1000), 10) + "ms"
}

// maxWorkspaceLabels bounds how many workspaces get their own entry in the
// /metrics per-workspace table; the rest fold into "other" so a server with
// many tenants cannot blow up the metric's label cardinality.
const maxWorkspaceLabels = 8

// WorkspaceCounters are one workspace's traffic counters.
type WorkspaceCounters struct {
	// JobsFinished counts jobs that reached a terminal state (done, failed
	// or canceled).
	JobsFinished uint64 `json:"jobsFinished"`
	// Integrations counts successful integration runs (sync and async).
	Integrations uint64 `json:"integrations"`
}

func (c WorkspaceCounters) traffic() uint64 { return c.JobsFinished + c.Integrations }

func (c *WorkspaceCounters) add(o WorkspaceCounters) {
	c.JobsFinished += o.JobsFinished
	c.Integrations += o.Integrations
}

// Metrics aggregates the server's operational counters: requests by route
// and status class, job lifecycle counts and the integration latency
// histogram. Live gauges (queue depth, cache counters, snapshot age,
// replication) are read from the workspaces when /metrics renders, not
// kept here. Everything is hand-rolled over a mutex so the package needs
// nothing beyond the standard library.
type Metrics struct {
	mu       sync.Mutex
	started  time.Time                    // immutable after NewMetrics
	requests map[string]map[string]uint64 // guarded by mu; route -> status class -> count
	jobs     map[JobState]uint64          // guarded by mu
	panics   uint64                       // guarded by mu

	// schemaParses counts schema uploads by frontend format;
	// queryTranslations counts /query translations by direction. Both label
	// sets are clamped by the caller (boundedFormat/boundedDirection).
	schemaParses      map[string]uint64 // guarded by mu
	queryTranslations map[string]uint64 // guarded by mu

	// workspaces holds per-tenant counters for live workspaces (bounded by
	// the server's workspace cap); otherWS accumulates counters folded in
	// from deleted workspaces. Both guarded by mu.
	workspaces map[string]*WorkspaceCounters // guarded by mu
	otherWS    WorkspaceCounters             // guarded by mu

	// journal counters (durable servers only).
	durable             bool   // guarded by mu
	journalAppends      uint64 // guarded by mu
	journalErrors       uint64 // guarded by mu
	compactions         uint64 // guarded by mu
	recoveredWorkspaces int    // guarded by mu
	recoveredJobs       int    // guarded by mu

	// IntegrationLatency times successful integration runs (sync and
	// job-queue alike). The pointer is immutable after NewMetrics; the
	// histogram carries its own lock.
	IntegrationLatency *Histogram
	// JournalFsync times the fsyncs the write-ahead journal performs.
	JournalFsync *Histogram

	// Admission counters. Lock-free atomics: the rejection paths run ahead
	// of all handler work and must stay free of lock contention — a flood
	// of 429s bumping a shared mutex would be its own overload vector.
	authFailures    atomic.Uint64
	rateLimited     atomic.Uint64
	quotaRejections atomic.Uint64
	bodyTooLarge    atomic.Uint64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		started:            time.Now().UTC(),
		requests:           map[string]map[string]uint64{},
		jobs:               map[JobState]uint64{},
		schemaParses:       map[string]uint64{},
		queryTranslations:  map[string]uint64{},
		workspaces:         map[string]*WorkspaceCounters{},
		IntegrationLatency: NewHistogram(),
		JournalFsync:       NewHistogram(),
	}
}

// workspace returns the named workspace's counters, creating them on first
// touch. The workspace-name label is bounded inside this registry: live
// entries cannot outnumber the server's workspace cap, ForgetWorkspace
// folds deleted tenants into "other", and snapshotWorkspacesLocked folds
// everything past the top maxWorkspaceLabels at render time.
//
//sit:locked mu
func (m *Metrics) workspace(ws string) *WorkspaceCounters {
	c := m.workspaces[ws]
	if c == nil {
		c = &WorkspaceCounters{}
		m.workspaces[ws] = c
	}
	return c
}

// ObserveIntegration counts one successful integration run under its
// workspace.
func (m *Metrics) ObserveIntegration(ws string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workspace(ws).Integrations++
}

// ForgetWorkspace folds a deleted workspace's counters into the "other"
// bucket so totals survive the tenant without the label lingering.
func (m *Metrics) ForgetWorkspace(ws string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.workspaces[ws]; c != nil {
		m.otherWS.add(*c)
		delete(m.workspaces, ws)
	}
}

// ObserveRequest counts one served request under its route pattern and
// status class ("2xx", "4xx", ...). route must be the mux pattern the
// handler is registered under, never the request's raw path.
//
//sit:metriclabel route
func (m *Metrics) ObserveRequest(route string, status int) {
	class := statusClass(status)
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[route]
	if byStatus == nil {
		byStatus = map[string]uint64{}
		m.requests[route] = byStatus
	}
	byStatus[class]++
}

// ObserveJob counts one job state transition: globally by state, and —
// when the state is terminal — under the owning workspace's counters.
func (m *Metrics) ObserveJob(ws string, state JobState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[state]++
	switch state {
	case JobDone, JobFailed, JobCanceled:
		m.workspace(ws).JobsFinished++
	}
}

// ObserveSchemaParse counts one schema upload by the frontend format that
// parsed it. format must already be clamped (boundedFormat).
//
//sit:metriclabel format
func (m *Metrics) ObserveSchemaParse(format string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schemaParses[format]++
}

// ObserveQueryTranslation counts one /query translation by direction.
// direction must already be clamped (boundedDirection).
//
//sit:metriclabel direction
func (m *Metrics) ObserveQueryTranslation(direction string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queryTranslations[direction]++
}

// ObserveAuthFailure counts one request refused 401/403 by API-key auth.
func (m *Metrics) ObserveAuthFailure() { m.authFailures.Add(1) }

// ObserveRateLimited counts one request refused 429 by a token bucket.
func (m *Metrics) ObserveRateLimited() { m.rateLimited.Add(1) }

// ObserveQuotaRejection counts one request refused because a workspace
// quota (schemas, jobs, journal bytes) was exhausted.
func (m *Metrics) ObserveQuotaRejection() { m.quotaRejections.Add(1) }

// ObserveBodyTooLarge counts one request body refused 413 over the cap.
func (m *Metrics) ObserveBodyTooLarge() { m.bodyTooLarge.Add(1) }

// ObservePanic counts one recovered handler panic.
func (m *Metrics) ObservePanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// ObserveJournalAppend counts one journal append attempt, timing its fsync
// (zero when the sync policy skipped it).
func (m *Metrics) ObserveJournalAppend(fsync time.Duration, err error) {
	m.mu.Lock()
	if err != nil {
		m.journalErrors++
	} else {
		m.journalAppends++
	}
	m.mu.Unlock()
	if fsync > 0 {
		m.JournalFsync.Observe(fsync)
	}
}

// ObserveCompaction counts one successful snapshot compaction.
func (m *Metrics) ObserveCompaction() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compactions++
}

// SetDurability marks the registry durable, recording the recovery counts.
func (m *Metrics) SetDurability(recoveredWorkspaces, recoveredJobs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.durable = true
	m.recoveredWorkspaces = recoveredWorkspaces
	m.recoveredJobs = recoveredJobs
}

// snapshotWorkspacesLocked renders the per-workspace counters with bounded
// cardinality: the top maxWorkspaceLabels workspaces by traffic keep their
// label; the rest — plus everything ForgetWorkspace already folded — merge
// into "other". Caller holds m.mu.
func (m *Metrics) snapshotWorkspacesLocked() map[string]WorkspaceCounters {
	if len(m.workspaces) == 0 && m.otherWS.traffic() == 0 {
		return nil
	}
	names := make([]string, 0, len(m.workspaces))
	for name := range m.workspaces {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := m.workspaces[names[i]].traffic(), m.workspaces[names[j]].traffic()
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	out := make(map[string]WorkspaceCounters, maxWorkspaceLabels+1)
	other := m.otherWS
	for i, name := range names {
		if i < maxWorkspaceLabels {
			out[name] = *m.workspaces[name]
		} else {
			other.add(*m.workspaces[name])
		}
	}
	if other.traffic() > 0 {
		folded := other
		if prev, ok := out["other"]; ok {
			folded.add(prev)
		}
		out["other"] = folded
	}
	return out
}

func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds      float64                      `json:"uptimeSeconds"`
	Requests           map[string]map[string]uint64 `json:"requestsByRoute"`
	Jobs               map[string]uint64            `json:"jobs"`
	QueueDepth         int                          `json:"queueDepth"`
	PanicsTotal        uint64                       `json:"panicsTotal"`
	IntegrationLatency HistogramSnapshot            `json:"integrationLatency"`
	// WorkspacesActive gauges the live workspace count.
	WorkspacesActive int `json:"workspaces_active"`
	// Workspaces carries per-tenant traffic counters, cardinality-bounded:
	// the top maxWorkspaceLabels workspaces by traffic keep their own label;
	// everything else (and every deleted workspace) aggregates as "other".
	Workspaces map[string]WorkspaceCounters `json:"workspaces,omitempty"`
	// Similarity-cache counters (ranked pairs and count matrices memoized
	// per schema pair in the store).
	SimilarityCacheHits   uint64 `json:"similarity_cache_hits"`
	SimilarityCacheMisses uint64 `json:"similarity_cache_misses"`
	// Assertion-closure counters: listing-cache hits/misses plus the
	// cumulative derived entries and conflicts produced by incremental
	// closure across all workspaces.
	ClosureCacheHits      uint64 `json:"closure_cache_hits"`
	ClosureCacheMisses    uint64 `json:"closure_cache_misses"`
	ClosureDerivedTotal   uint64 `json:"closure_derived_total"`
	ClosureConflictsTotal uint64 `json:"closure_conflicts_total"`
	// SchemaParses counts schema uploads by frontend format (dictionary,
	// sql, hierarchical, avro, jsonschema).
	SchemaParses map[string]uint64 `json:"schema_parses,omitempty"`
	// QueryTranslations counts federated query translations by direction.
	QueryTranslations map[string]uint64 `json:"query_translations,omitempty"`
	// Admission reports the admission-control rejection counters.
	Admission AdmissionSnapshot `json:"admission"`
	// Journal is present only on durable servers (started with a data dir).
	Journal *JournalSnapshot `json:"journal,omitempty"`
	// Replication reports the server's role and, on followers, stream
	// counters and per-workspace lag.
	Replication *ReplicationSnapshot `json:"replication,omitempty"`
}

// ReplicaLag is one workspace's replication position relative to the
// leader, as of the follower's last sync round.
type ReplicaLag struct {
	// AppliedSeq is the replica's last applied sequence number.
	AppliedSeq uint64 `json:"applied_seq"`
	// LeaderSeq is the leader's sequence number when last observed.
	LeaderSeq uint64 `json:"leader_seq"`
	// LagRecords is LeaderSeq - AppliedSeq (0 when caught up).
	LagRecords uint64 `json:"lag_records"`
	// LagBytes is the leader journal's byte length minus the replica's —
	// comparable directly because the journals are byte-identical.
	LagBytes int64 `json:"lag_bytes"`
}

// ReplicationSnapshot is the replication section of the /metrics response.
type ReplicationSnapshot struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Leader is the leader's URL (followers only).
	Leader string `json:"leader,omitempty"`
	// RecordsApplied counts journal records applied from the stream.
	RecordsApplied uint64 `json:"records_applied,omitempty"`
	// BytesApplied counts raw frame bytes applied from the stream.
	BytesApplied uint64 `json:"bytes_applied,omitempty"`
	// SnapshotsFetched counts full snapshot bootstraps (first contact,
	// compaction fallback, divergence repair).
	SnapshotsFetched uint64 `json:"snapshots_fetched,omitempty"`
	// SyncErrors counts failed sync rounds (leader down, stream errors).
	SyncErrors uint64 `json:"sync_errors,omitempty"`
	// Workspaces is the per-workspace lag table (followers only).
	Workspaces map[string]ReplicaLag `json:"workspaces,omitempty"`
}

// AdmissionSnapshot is the admission-control section of the /metrics
// response: how many requests the front door turned away, and why.
type AdmissionSnapshot struct {
	AuthFailuresTotal    uint64 `json:"auth_failures_total"`
	RateLimitedTotal     uint64 `json:"rate_limited_total"`
	QuotaRejectionsTotal uint64 `json:"quota_rejections_total"`
	BodyTooLargeTotal    uint64 `json:"body_too_large_total"`
}

// JournalSnapshot is the durability section of the /metrics response.
type JournalSnapshot struct {
	AppendsTotal        uint64            `json:"journal_appends_total"`
	ErrorsTotal         uint64            `json:"journal_errors_total"`
	CompactionsTotal    uint64            `json:"compactions_total"`
	FsyncSeconds        HistogramSnapshot `json:"journal_fsync_seconds"`
	SnapshotAgeSeconds  float64           `json:"snapshot_age_seconds"`
	RecoveredWorkspaces int               `json:"recovered_workspaces"`
	RecoveredJobs       int               `json:"recovered_jobs"`
}

// Snapshot renders every counter at once. The live gauges are left zero
// (and Replication nil) for handleMetrics to fill.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	requests := make(map[string]map[string]uint64, len(m.requests))
	for route, byStatus := range m.requests {
		cp := make(map[string]uint64, len(byStatus))
		for class, n := range byStatus {
			cp[class] = n
		}
		requests[route] = cp
	}
	jobs := make(map[string]uint64, len(m.jobs))
	for state, n := range m.jobs {
		jobs[string(state)] = n
	}
	var parses map[string]uint64
	if len(m.schemaParses) > 0 {
		parses = make(map[string]uint64, len(m.schemaParses))
		for format, n := range m.schemaParses {
			parses[format] = n
		}
	}
	var translations map[string]uint64
	if len(m.queryTranslations) > 0 {
		translations = make(map[string]uint64, len(m.queryTranslations))
		for dir, n := range m.queryTranslations {
			translations[dir] = n
		}
	}
	started := m.started
	panics := m.panics
	wsSnap := m.snapshotWorkspacesLocked()
	var journal *JournalSnapshot
	if m.durable {
		journal = &JournalSnapshot{
			AppendsTotal:        m.journalAppends,
			ErrorsTotal:         m.journalErrors,
			CompactionsTotal:    m.compactions,
			RecoveredWorkspaces: m.recoveredWorkspaces,
			RecoveredJobs:       m.recoveredJobs,
		}
	}
	m.mu.Unlock()

	snap := MetricsSnapshot{
		UptimeSeconds:      time.Since(started).Seconds(),
		Requests:           requests,
		Jobs:               jobs,
		PanicsTotal:        panics,
		IntegrationLatency: m.IntegrationLatency.Snapshot(),
		Workspaces:         wsSnap,
		SchemaParses:       parses,
		QueryTranslations:  translations,
		Admission: AdmissionSnapshot{
			AuthFailuresTotal:    m.authFailures.Load(),
			RateLimitedTotal:     m.rateLimited.Load(),
			QuotaRejectionsTotal: m.quotaRejections.Load(),
			BodyTooLargeTotal:    m.bodyTooLarge.Load(),
		},
	}
	if journal != nil {
		journal.FsyncSeconds = m.JournalFsync.Snapshot()
		snap.Journal = journal
	}
	return snap
}
