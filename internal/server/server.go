package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Server. The zero value is usable: sensible
// defaults are filled in by New.
type Config struct {
	// Workers is the per-workspace job-queue worker pool size (default 4).
	Workers int
	// QueueCapacity bounds the number of queued-but-unstarted jobs per
	// workspace (default 64); submissions beyond it are rejected with 503.
	QueueCapacity int
	// RequestTimeout bounds each HTTP request's context (default 30s).
	RequestTimeout time.Duration
	// JobTimeout bounds each job's execution context (default 5m).
	JobTimeout time.Duration
	// ShutdownGrace bounds the drain on graceful shutdown (default 10s).
	ShutdownGrace time.Duration
	// MaxWorkspaces caps how many workspaces may exist at once, counting
	// the default one (default 64). Recovery never refuses workspaces that
	// already exist on disk; the cap applies to creations.
	MaxWorkspaces int
	// Logger receives structured request and lifecycle logs; nil
	// disables logging.
	Logger *slog.Logger
	// Store optionally seeds the default workspace with a pre-populated
	// store (for example from a loaded workspace file); nil starts empty.
	// Ignored by Open, where the data directory is authoritative.
	Store *Store
	// Follow, when set, starts the server as a read-only follower
	// replicating the given leader's journals. Followers must be durable
	// (built with Open): the replicated stream IS a journal. Mutations are
	// refused with 421 and a Location pointing at the leader; POST
	// /v1/promote turns the follower into a leader.
	Follow *FollowerConfig
	// Limits bounds per-workspace and per-key resource consumption
	// (quotas and token-bucket rates). The zero value disables admission
	// control. API keys are installed separately via SetKeysFile.
	Limits Limits
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.MaxWorkspaces <= 0 {
		c.MaxWorkspaces = 64
	}
	return c
}

// Server ties the workspace manager, the metrics registry and the HTTP mux
// together. Each workspace carries its own store, job queue and (on
// durable servers) journal; the server owns only the shared plumbing.
type Server struct {
	cfg     Config
	manager *Manager
	metrics *Metrics
	log     *slog.Logger

	// table is every route handle registered, in order, and handler is
	// the mux built from it once routes() has run. Nothing else registers
	// on the mux, so the table is the whole served surface; TestRouteTable
	// reads it.
	table   []route
	handler http.Handler

	// dcfg, when set, makes every workspace durable: each gets its own
	// journal under dcfg.Dir/<name>/. Set by Open before any workspace is
	// built.
	dcfg *DurabilityConfig

	// seed, when set, becomes the default workspace's store on first
	// build (consumed exactly once).
	seed *Store

	// follow holds the live follower machinery while the server is a
	// follower; nil means leader. Readers load it lock-free on every
	// request; promotion swaps it to nil exactly once, serialized by the
	// promoting claim flag (no lock is held across the transition's
	// journal re-arming).
	follow    atomic.Pointer[followState]
	promoting atomic.Bool
	// promoted latches true once a follower has been promoted, so
	// workspaces built afterwards arm as journaling leaders even though
	// cfg.Follow is still set.
	promoted atomic.Bool

	// changes is the leader-wide change counter the replication workspace
	// list long-polls on.
	changes *changeFeed
	// closing is closed when the server starts going down (Shutdown or
	// Kill), so held long-polls answer at once instead of holding the
	// drain up for their whole wait.
	closing   chan struct{}
	closeOnce sync.Once

	// limits is cfg.Limits with defaults applied (set once in newServer).
	limits Limits

	// API-key state. fileKeys holds the set loaded from the -keys file;
	// replKeys holds the set that arrived through the journal (replay or
	// replication). effectiveKeys picks by role; nil both means auth off.
	fileKeys atomic.Pointer[keySet]
	replKeys atomic.Pointer[keySet]

	keyMu sync.Mutex
	// keysPath remembers the -keys file for ReloadKeys/SIGHUP.
	keysPath string // guarded by keyMu
	// keysJournaled is the canonical JSON of the last journaled (or
	// replayed) key set, the journalKeys dedupe check; keyEntries is the
	// same set in entry form, for snapshots.
	keysJournaled string        // guarded by keyMu
	keyEntries    []apiKeyEntry // guarded by keyMu

	mu       sync.Mutex
	listener net.Listener
	httpSrv  *http.Server
}

// New builds a ready-to-serve memory-only Server (not yet listening) with
// the default workspace created.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := newServer(cfg, nil)
	s.seed = cfg.Store
	if _, err := s.manager.Create(DefaultWorkspace); err != nil {
		// Unreachable: the manager is empty and the name is valid.
		panic(err)
	}
	return s
}

// newServer wires the shared pieces (manager, metrics, routes) without
// creating any workspace; Open populates the manager from disk instead.
func newServer(cfg Config, dcfg *DurabilityConfig) *Server {
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		log:     cfg.Logger,
		dcfg:    dcfg,
		limits:  cfg.Limits.withDefaults(),
		changes: newChangeFeed(),
		closing: make(chan struct{}),
	}
	s.manager = NewManager(cfg.MaxWorkspaces, s.buildWorkspace, s.destroyWorkspace)
	s.manager.onChange = s.changes.bump
	s.routes()
	s.handler = serveMux(s.table)
	return s
}

// newWorkspaceFrom assembles a workspace around an existing store: its own
// job queue (own job-ID sequence) whose executor runs against that store,
// wired into the shared metrics under the workspace's name, plus its
// admission state — a rate-limit bucket always, and the schema/job quotas
// unless the workspace is being built as a follower replica (replicated
// records the leader accepted must always apply; promotion arms the
// quotas then).
func (s *Server) newWorkspaceFrom(name string, st *Store) *Workspace {
	ws := &Workspace{name: name, created: time.Now().UTC(), store: st}
	ws.queue = NewQueue(s.cfg.Workers, s.cfg.QueueCapacity, s.cfg.JobTimeout,
		func(ctx context.Context, req JobRequest) (*IntegrationResult, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return s.runIntegration(ws, req)
		})
	ws.queue.SetObserver(func(j Job) { s.metrics.ObserveJob(name, j.State) })
	if s.limits.WorkspaceRate > 0 {
		ws.bucket = newBucket(s.limits.WorkspaceRate, s.limits.WorkspaceBurst)
	}
	if !s.followerAtBuild() {
		st.SetMaxSchemas(s.limits.MaxSchemas)
		ws.queue.SetMaxJobs(s.limits.MaxJobs)
	}
	return ws
}

// followerAtBuild reports whether a workspace being built right now should
// arm as a follower replica: the server was configured as a follower and
// has not been promoted since. (cfg.Follow alone is wrong after a
// promotion — workspaces created on the new leader must journal.)
func (s *Server) followerAtBuild() bool {
	return s.cfg.Follow != nil && !s.promoted.Load()
}

// buildWorkspace provisions a brand-new workspace (Manager.Create hook):
// an empty store — or the configured seed for the first default — plus, on
// durable servers, a fresh journal directory.
func (s *Server) buildWorkspace(name string) (*Workspace, error) {
	st := NewStore()
	if name == DefaultWorkspace && s.seed != nil {
		st = s.seed
		s.seed = nil
	}
	ws := s.newWorkspaceFrom(name, st)
	if s.dcfg != nil {
		if err := s.openWorkspaceJournal(ws); err != nil {
			ws.queue.Kill()
			return nil, err
		}
	}
	return ws, nil
}

// destroyWorkspace releases a deleted workspace's resources: the queue is
// torn down (in-flight jobs are awaited, buffered ones canceled), the
// journal closed, and the data subdirectory removed. Runs outside the
// manager lock.
func (s *Server) destroyWorkspace(ws *Workspace) {
	ws.queue.Kill()
	if ws.persist != nil {
		ws.persist.stopLoop()
		ws.persist.j.CloseAbrupt()
		if err := removeWorkspaceDir(s.dcfg.Dir, ws.name); err != nil && s.log != nil {
			s.log.Error("remove workspace data", "workspace", ws.name, "error", err)
		}
	}
	s.metrics.ForgetWorkspace(ws.name)
	if s.log != nil {
		s.log.Info("workspace deleted", "workspace", ws.name)
	}
}

// Workspaces exposes the workspace manager (tests, in-process embedding).
func (s *Server) Workspaces() *Manager { return s.manager }

// defaultWS returns the default workspace, which exists for the server's
// whole lifetime.
func (s *Server) defaultWS() *Workspace {
	ws, err := s.manager.Get(DefaultWorkspace)
	if err != nil {
		panic("server: default workspace missing")
	}
	return ws
}

// Store exposes the default workspace's store (tests, in-process
// embedding, CLI preloads).
func (s *Server) Store() *Store { return s.defaultWS().store }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// route is one registered pattern and its instrumented handler.
type route struct {
	pattern string
	h       http.Handler
}

// handle registers a route with the standard middleware stack: it records
// the pattern in the route table the serving mux is built from. pattern
// doubles as the request-metrics label, so it must be a mux pattern. The
// handler must already be wrapped in an admitter; TestRouteTable checks
// each pattern's admission class by behaviour.
//
// handle stays out of line: inlined into routes(), it would give every
// route its own copy of instrument's closure code on the request path
// instead of the one copy all routes share.
//
//sit:metriclabel pattern
//go:noinline
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.table = append(s.table, route{pattern, instrument(pattern, s.log, s.metrics, s.cfg.RequestTimeout, h)})
}

// serveMux builds the serving mux from the route table; it is the only
// code that registers on a mux.
func serveMux(table []route) http.Handler {
	mux := http.NewServeMux()
	for _, r := range table {
		mux.Handle(r.pattern, r.h)
	}
	return mux
}

// handleWS registers one data-plane route twice: under the workspace
// prefix (/v1/workspaces/{ws}/...) and unprefixed (/v1/...) as an alias
// for the default workspace, so pre-workspace clients keep working. The
// handler must already be admitted (admitRead/admitMutate resolve the
// workspace and run the auth/rate/quota chain).
//
//sit:metriclabel method suffix
func (s *Server) handleWS(method, suffix string, h http.HandlerFunc) {
	s.handle(method+" /v1"+suffix, h)
	s.handle(method+" /v1/workspaces/{ws}"+suffix, h)
}

func (s *Server) routes() {
	// Every handler passes through exactly one admitter (TestRouteTable
	// holds each pattern's class and checks it by behaviour): admitOpen
	// for probes, admitPeer for the server-to-server stream, admitAdmin
	// for the control plane, and admitRead/admitMutate for the data plane
	// — which authenticate, resolve the workspace, charge the per-key and
	// per-workspace token buckets and (mutations) apply the follower gate
	// and journal quota before any handler work runs.
	s.handle("GET /healthz", s.admitOpen(s.handleHealthz))
	s.handle("GET /metrics", s.admitAdmin(s.handleMetrics))

	// Workspace lifecycle. Creation and deletion are mutations: on a
	// follower the workspace set mirrors the leader's, so both redirect.
	s.handle("GET /v1/workspaces", s.admitAdmin(s.handleWorkspacesList))
	s.handle("POST /v1/workspaces", s.admitAdmin(s.gate(s.handleWorkspacesPost)))
	s.handle("GET /v1/workspaces/{ws}", s.admitRead(s.handleWorkspaceGet))
	s.handle("DELETE /v1/workspaces/{ws}", s.admitAdmin(s.gate(s.handleWorkspaceDelete)))

	// Data plane, workspace-scoped with unprefixed default aliases.
	// Mutating routes redirect on a follower (inside admitMutate); reads —
	// including /integrate, which computes over the replicated state
	// without mutating it — serve from the replica.
	s.handleWS("POST", "/schemas", s.admitMutate(s.handleSchemasPost))
	s.handleWS("GET", "/schemas", s.admitRead(s.handleSchemasList))
	s.handleWS("GET", "/schemas/{name}", s.admitRead(s.handleSchemaGet))
	s.handleWS("DELETE", "/schemas/{name}", s.admitMutate(s.handleSchemaDelete))

	s.handleWS("POST", "/equivalences", s.admitMutate(s.handleEquivalencesPost))
	s.handleWS("GET", "/equivalences", s.admitRead(s.handleEquivalencesList))

	s.handleWS("GET", "/resemblance", s.admitRead(s.handleResemblance))
	s.handleWS("GET", "/matrix", s.admitRead(s.handleMatrix))
	s.handleWS("GET", "/suggestions", s.admitRead(s.handleSuggestions))

	s.handleWS("POST", "/assertions", s.admitMutate(s.handleAssertionsPost))
	s.handleWS("GET", "/assertions", s.admitRead(s.handleAssertionsList))
	s.handleWS("DELETE", "/assertions", s.admitMutate(s.handleAssertionsDelete))
	s.handleWS("GET", "/assertions/explain", s.admitRead(s.handleAssertionExplain))

	s.handleWS("POST", "/integrate", s.admitRead(s.handleIntegrate))
	s.handleWS("POST", "/integrations", s.admitMutate(s.handleIntegrationsPost))
	s.handleWS("GET", "/integrations", s.admitRead(s.handleIntegrationsList))
	s.handleWS("GET", "/integrations/{name}", s.admitRead(s.handleIntegrationGet))
	s.handleWS("POST", "/rows", s.admitMutate(s.handleRowsPost))
	s.handleWS("POST", "/query", s.admitRead(s.handleQueryPost))
	s.handleWS("POST", "/jobs", s.admitMutate(s.handleJobsPost))
	s.handleWS("GET", "/jobs", s.admitRead(s.handleJobsList))
	s.handleWS("GET", "/jobs/{id}", s.admitRead(s.handleJobGet))

	s.handleWS("GET", "/quota", s.admitRead(s.handleQuotaGet))

	// Replication: the leader-side stream API plus follower promotion.
	// The stream routes are role-agnostic (a follower can feed another
	// follower); they only require a durable server.
	s.handle("GET /v1/replication/workspaces", s.admitPeer(s.handleReplWorkspaces))
	s.handle("GET /v1/replication/workspaces/{ws}/snapshot", s.admitPeer(s.handleReplSnapshot))
	s.handle("GET /v1/replication/workspaces/{ws}/records", s.admitPeer(s.handleReplRecords))
	s.handle("POST /v1/promote", s.admitAdmin(s.handlePromote))
}

// Handler returns the full HTTP handler (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Start listens on addr ("host:port"; port 0 picks a free one) and serves
// in the background, returning the bound address. Pair with Shutdown.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.listener = ln
	s.httpSrv = srv
	s.mu.Unlock()
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			if s.log != nil {
				s.log.Error("serve", "error", err)
			}
		}
	}()
	if s.log != nil {
		s.log.Info("listening", "addr", ln.Addr().String())
	}
	return ln.Addr().String(), nil
}

// Shutdown stops the HTTP listener (draining in-flight requests) and then
// every workspace's job queue, bounded by the context (falling back to the
// configured grace period when the context has no deadline).
func (s *Server) Shutdown(ctx context.Context) error {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ShutdownGrace)
		defer cancel()
	}
	var first error
	s.startClosing()
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			first = err
		}
	}
	// Stop the follower apply loop (and wait it out) before compacting, so
	// every captured state is quiescent.
	if f := s.follow.Load(); f != nil {
		f.halt(true)
	}
	// Per workspace: compact before draining the queue, so jobs still
	// buffered are captured as queued in the snapshot (the drain below only
	// cancels them in memory) and are re-enqueued by the next process.
	for _, ws := range s.manager.List() {
		if ws.persist != nil {
			ws.persist.stopLoop()
			if err := s.compactWorkspace(ws); err != nil && first == nil {
				first = err
			}
		}
		if err := ws.queue.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		if ws.persist != nil {
			if err := ws.persist.j.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if s.log != nil {
		s.log.Info("shut down", "error", first)
	}
	return first
}

// startClosing releases every held long-poll; safe to call more than once.
func (s *Server) startClosing() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// Run serves on addr until the context is canceled (typically by SIGTERM
// via signal.NotifyContext), then shuts down gracefully.
func (s *Server) Run(ctx context.Context, addr string) error {
	if _, err := s.Start(addr); err != nil {
		return err
	}
	<-ctx.Done()
	// The parent context is already canceled; shut down on a fresh one
	// bounded by the grace period.
	return s.Shutdown(context.Background())
}

// Addr returns the bound address after Start, or "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}
