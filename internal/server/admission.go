package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Admission-control errors. Handlers and clients classify them with
// errors.Is, never by message text.
var (
	// ErrQuota marks a request rejected because a per-workspace quota
	// (schemas, jobs, journaled bytes) is exhausted; mapped to 429.
	ErrQuota = errors.New("quota exceeded")
	// ErrRateLimited marks a request rejected by a token bucket; mapped
	// to 429 with a Retry-After computed from the bucket's actual deficit.
	ErrRateLimited = errors.New("rate limited")
	// ErrBodyTooLarge marks a request body that overflowed the configured
	// cap; mapped to 413.
	ErrBodyTooLarge = errors.New("request body too large")
)

// Limits bounds what one workspace (and one API key) may consume. The zero
// value of every field means "unlimited", so a zero Limits disables
// admission control entirely and the server behaves exactly as before.
type Limits struct {
	// MaxSchemas caps how many schemas a workspace may hold at once.
	MaxSchemas int
	// MaxJobs caps a workspace's queued-plus-running jobs. Distinct from
	// the queue's buffer capacity: the buffer answers 503 (transient — the
	// workers will drain it), the quota answers 429 (the tenant's envelope
	// is full).
	MaxJobs int
	// MaxJournalBytes caps a workspace's journal file length. Checked in
	// the admission middleware before any handler work; compaction shrinks
	// the journal, so a workspace over quota recovers on its own once
	// traffic stops.
	MaxJournalBytes int64
	// MaxBodyBytes caps every mutation request body (default 4 MiB);
	// overflow is 413 with ErrBodyTooLarge.
	MaxBodyBytes int64
	// WorkspaceRate is the steady per-workspace request rate (tokens per
	// second) across the whole data plane; 0 disables workspace rate
	// limiting.
	WorkspaceRate float64
	// WorkspaceBurst is the workspace bucket's capacity (default
	// max(1, 2*WorkspaceRate)).
	WorkspaceBurst int
	// KeyRate is the steady per-API-key request rate; 0 disables per-key
	// rate limiting. Meaningful only when a keys file is installed.
	KeyRate float64
	// KeyBurst is the per-key bucket's capacity (default max(1, 2*KeyRate)).
	KeyBurst int
}

func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = maxBodyBytes
	}
	if l.WorkspaceRate > 0 && l.WorkspaceBurst <= 0 {
		l.WorkspaceBurst = defaultBurst(l.WorkspaceRate)
	}
	if l.KeyRate > 0 && l.KeyBurst <= 0 {
		l.KeyBurst = defaultBurst(l.KeyRate)
	}
	return l
}

func defaultBurst(rate float64) int {
	b := int(math.Ceil(2 * rate))
	if b < 1 {
		b = 1
	}
	return b
}

// Retry-After bounds. Every 429/503 the server writes carries a
// Retry-After inside [minRetryAfterSeconds, maxRetryAfterSeconds]: the
// floor keeps a freshly started server (empty latency histogram, tiny
// bucket deficit) from telling clients to retry in 0 seconds — an
// invitation to hammer — and the ceiling keeps a deep backlog from telling
// them to go away for hours.
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 300
)

// clampRetryAfter bounds a Retry-After estimate to the sane window.
func clampRetryAfter(secs int) int {
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// bucket is a token bucket over the monotonic clock: tokens accrue at
// rate per second up to burst, and each admitted request spends one.
// Refill happens lazily on take, so an idle bucket costs nothing.
type bucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take spends one token if available. On refusal it reports how long the
// caller must wait for one token to accrue — the actual deficit, which is
// what an honest Retry-After is made of. now must come from time.Now():
// the arithmetic runs on Go's monotonic clock reading, so wall-clock jumps
// never mint or burn tokens.
//
// Every admitted request passes through here, so it must not allocate;
// TestBucketTakeAllocs holds both the admitting and the refusing path to
// zero allocations.
func (b *bucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
			b.tokens = math.Min(b.burst, b.tokens+elapsed*b.rate)
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// rateLimitedBody is the static 429 payload: the rejection path runs
// before any handler work and allocates next to nothing.
const rateLimitedBody = `{"error":"rate limited; retry after the Retry-After delay"}` + "\n"

// writeRateLimited answers 429 with a Retry-After derived from the
// bucket's actual deficit. The body is a constant: rejections under
// overload must not cost encoder allocations.
func writeRateLimited(w http.ResponseWriter, wait time.Duration) {
	secs := clampRetryAfter(int(math.Ceil(wait.Seconds())))
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", strconv.Itoa(secs))
	w.WriteHeader(http.StatusTooManyRequests)
	_, _ = io.WriteString(w, rateLimitedBody)
}

// --- admitters ---
//
// Every route the server registers passes through exactly one of these
// wrappers; TestRouteTable maps each pattern to its class and checks the
// class by behaviour on a keyed leader and on a follower. They run inside
// instrument (metrics/logging/timeout) and ahead of all handler work, so a
// rejected request never touches a store, a queue or a journal.

// wsHandler is a workspace-scoped handler, invoked with the resolved
// workspace after admission.
type wsHandler func(*Workspace, http.ResponseWriter, *http.Request)

// admitOpen marks a route deliberately unauthenticated and unlimited
// (health probes). The explicit wrapper keeps the route table auditable:
// an unwrapped handler fails TestRouteTable's 401 check, an admitOpen one
// is a decision recorded in its open list.
func (s *Server) admitOpen(h http.HandlerFunc) http.HandlerFunc { return h }

// admitPeer guards the server-to-server replication stream: admin-scoped
// auth, but no rate limiting — the stream is flow-controlled by long
// polling, and throttling it would manufacture replication lag.
func (s *Server) admitPeer(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := s.authorize(w, r, scopeAdmin, ""); !ok {
			return
		}
		h(w, r)
	}
}

// admitAdmin guards control-plane routes (workspace lifecycle, metrics,
// promotion): admin-scoped auth plus the per-key bucket.
func (s *Server) admitAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key, ok := s.authorize(w, r, scopeAdmin, "")
		if !ok {
			return
		}
		if !s.allowKey(key, w) {
			return
		}
		h(w, r)
	}
}

// admitRead admits a data-plane read: authenticate (data scope, against
// the route's workspace), resolve the workspace, then charge the per-key
// and per-workspace buckets.
func (s *Server) admitRead(h wsHandler) http.HandlerFunc {
	return s.admitWorkspace(false, h)
}

// admitMutate admits a data-plane mutation: everything admitRead does,
// then the follower write gate and the journal-byte quota. Body decoding
// (and the body-size cap) stays in the handlers, which know each route's
// content type; the cap itself comes from s.limits via decodeBody.
func (s *Server) admitMutate(h wsHandler) http.HandlerFunc {
	return s.admitWorkspace(true, h)
}

func (s *Server) admitWorkspace(mutate bool, h wsHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("ws")
		if name == "" {
			name = DefaultWorkspace
		}
		key, ok := s.authorize(w, r, scopeData, name)
		if !ok {
			return
		}
		ws, err := s.manager.Get(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if !s.allowKey(key, w) {
			return
		}
		if b := ws.bucket; b != nil {
			if ok, wait := b.take(time.Now()); !ok {
				s.metrics.ObserveRateLimited()
				writeRateLimited(w, wait)
				return
			}
		}
		if mutate {
			// The follower gate outranks quotas: a mutation this server
			// will not apply belongs at the leader, whatever the local
			// journal's length says.
			if s.redirectToLeader(w, r) {
				return
			}
			if max := s.limits.MaxJournalBytes; max > 0 && ws.persist != nil {
				if used := ws.persist.j.Offset(); used >= max {
					s.metrics.ObserveQuotaRejection()
					writeError(w, http.StatusTooManyRequests, fmt.Errorf(
						"server: workspace %q journal %w: %d of %d bytes used; delete data or wait for compaction",
						name, ErrQuota, used, max))
					return
				}
			}
		}
		h(ws, w, r)
	}
}

// allowKey charges the per-key token bucket (nil key: auth is disabled or
// the key set carries no per-key rate).
func (s *Server) allowKey(k *keyAuth, w http.ResponseWriter) bool {
	if k == nil || k.bucket == nil {
		return true
	}
	ok, wait := k.bucket.take(time.Now())
	if !ok {
		s.metrics.ObserveRateLimited()
		writeRateLimited(w, wait)
		return false
	}
	return true
}

// --- quota usage endpoint ---

// QuotaReport is the GET /v1/workspaces/{ws}/quota response: the effective
// limits (0 = unlimited) next to the workspace's live usage.
type QuotaReport struct {
	Workspace string      `json:"workspace"`
	Limits    QuotaLimits `json:"limits"`
	Usage     QuotaUsage  `json:"usage"`
}

// QuotaLimits is the limits half of a QuotaReport.
type QuotaLimits struct {
	MaxSchemas      int     `json:"maxSchemas"`
	MaxJobs         int     `json:"maxJobs"`
	MaxJournalBytes int64   `json:"maxJournalBytes"`
	MaxBodyBytes    int64   `json:"maxBodyBytes"`
	RatePerSecond   float64 `json:"ratePerSecond"`
	Burst           int     `json:"burst"`
}

// QuotaUsage is the usage half of a QuotaReport. JournalBytes is the
// journal's current file length — the same number the admission check
// reads, and byte-exact across crash recovery because it is recomputed
// from the file on open.
type QuotaUsage struct {
	Schemas      int   `json:"schemas"`
	Jobs         int   `json:"jobs"`
	JournalBytes int64 `json:"journalBytes"`
}

func (s *Server) handleQuotaGet(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	rep := QuotaReport{
		Workspace: ws.name,
		Limits: QuotaLimits{
			MaxSchemas:      s.limits.MaxSchemas,
			MaxJobs:         s.limits.MaxJobs,
			MaxJournalBytes: s.limits.MaxJournalBytes,
			MaxBodyBytes:    s.limits.MaxBodyBytes,
			RatePerSecond:   s.limits.WorkspaceRate,
			Burst:           s.limits.WorkspaceBurst,
		},
		Usage: QuotaUsage{
			Schemas: len(ws.store.SchemaNames()),
			Jobs:    ws.queue.Depth(),
		},
	}
	if ws.persist != nil {
		rep.Usage.JournalBytes = ws.persist.j.Offset()
	}
	writeJSON(w, http.StatusOK, rep)
}
