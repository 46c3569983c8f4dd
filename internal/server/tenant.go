package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkspace is the tenant behind the unprefixed /v1/... routes:
// every pre-workspace client keeps talking to it without change. It exists
// from server start and cannot be deleted.
const DefaultWorkspace = "default"

// MaxWorkspaceNameLen bounds workspace names. Names become directory names
// under the data directory, so the cap keeps paths portable.
const MaxWorkspaceNameLen = 64

// Workspace lifecycle errors. Handlers classify them with errors.Is, never
// by message text.
var (
	// ErrWorkspaceExists rejects creating a name that is already taken.
	ErrWorkspaceExists = errors.New("workspace already exists")
	// ErrWorkspaceCap rejects creation beyond the configured maximum.
	ErrWorkspaceCap = errors.New("workspace cap reached")
	// ErrDefaultWorkspace rejects deleting the default workspace.
	ErrDefaultWorkspace = errors.New("the default workspace cannot be deleted")
)

// ValidateWorkspaceName enforces the naming rules: 1..MaxWorkspaceNameLen
// characters from [A-Za-z0-9._-], no path separators, no ".." sequence, and
// no leading "." or "-" (hidden directories are reserved for the server's
// own bookkeeping; a leading dash reads like a flag).
func ValidateWorkspaceName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("server: workspace name is empty")
	case len(name) > MaxWorkspaceNameLen:
		return fmt.Errorf("server: workspace name longer than %d characters", MaxWorkspaceNameLen)
	case strings.ContainsAny(name, "/\\"):
		return fmt.Errorf("server: workspace name %q contains a path separator", name)
	case strings.Contains(name, ".."):
		return fmt.Errorf("server: workspace name %q contains %q", name, "..")
	case name[0] == '.' || name[0] == '-':
		return fmt.Errorf("server: workspace name %q starts with %q", name, string(name[0]))
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("server: workspace name %q contains %q (allowed: letters, digits, '.', '_', '-')", name, string(r))
		}
	}
	return nil
}

// Workspace is one tenant of the server: a named store with its own
// RWMutex, generation counters and similarity/integration caches, its own
// job queue (and job-ID sequence), and — on durable servers — its own
// write-ahead journal under <data-dir>/<name>/. Two workspaces share no
// locks, so traffic for different tenants never serializes.
type Workspace struct {
	name    string
	created time.Time
	store   *Store
	queue   *Queue
	// persist is the workspace's durability layer (journal + compaction
	// loop); nil on memory-only servers.
	persist *persister
	// bucket rate-limits the workspace's data plane; nil when
	// Limits.WorkspaceRate is unset. The bucket carries its own lock.
	bucket *bucket
	// replica, while non-nil, marks the workspace as a follower replica:
	// its job table lives here (applied from the leader's stream, never
	// executed locally) and its store mutates only through the replication
	// apply path. Promote swaps it back to nil.
	replica atomic.Pointer[replicaState]
}

// Name returns the workspace's name.
func (ws *Workspace) Name() string { return ws.name }

// Created returns the workspace's creation (or recovery) time.
func (ws *Workspace) Created() time.Time { return ws.created }

// Store exposes the workspace's store (tests, in-process embedding).
func (ws *Workspace) Store() *Store { return ws.store }

// Manager owns the named workspaces: a concurrent map guarded by an
// RWMutex that covers only membership — every workspace's own traffic runs
// on the workspace's locks. build provisions a new workspace's resources
// (store, queue, journal), destroy releases them; destroy runs outside the
// manager lock so tearing one tenant down never stalls the others.
type Manager struct {
	max     int
	build   func(name string) (*Workspace, error)
	destroy func(*Workspace)
	// onChange, when set, is called after a workspace is created or
	// deleted (the replication change counter); it runs outside mu.
	onChange func()

	mu sync.RWMutex
	// byName maps workspace names to live workspaces. A nil value is a
	// reservation: a Create in flight holds the name (and a slot under the
	// cap) while it provisions outside the lock.
	byName map[string]*Workspace // guarded by mu
}

// NewManager returns a manager enforcing the given workspace cap (counting
// the default workspace).
func NewManager(max int, build func(name string) (*Workspace, error), destroy func(*Workspace)) *Manager {
	return &Manager{
		max:     max,
		build:   build,
		destroy: destroy,
		byName:  map[string]*Workspace{},
	}
}

// Get returns the named workspace, or an ErrNotFound-classified error.
func (m *Manager) Get(name string) (*Workspace, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ws, ok := m.byName[name]
	if !ok || ws == nil {
		return nil, fmt.Errorf("server: workspace %q %w", name, ErrNotFound)
	}
	return ws, nil
}

// Create validates the name, enforces the cap, provisions the workspace
// and registers it. The name (and its slot under the cap) is reserved
// under the manager lock, but the build itself — a directory, an empty
// journal and an fsync on durable servers — runs outside it, so a slow
// disk never stalls lookups for other tenants. A concurrent Create of the
// same name sees the reservation and fails with ErrWorkspaceExists; a
// failed build releases the reservation.
func (m *Manager) Create(name string) (*Workspace, error) {
	if err := ValidateWorkspaceName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if _, ok := m.byName[name]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: workspace %q: %w", name, ErrWorkspaceExists)
	}
	if m.max > 0 && len(m.byName) >= m.max {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: %w (max %d)", ErrWorkspaceCap, m.max)
	}
	m.byName[name] = nil // reserve the name while building
	m.mu.Unlock()

	ws, err := m.build(name)

	m.mu.Lock()
	if err != nil {
		delete(m.byName, name)
		m.mu.Unlock()
		return nil, err
	}
	m.byName[name] = ws
	m.mu.Unlock()
	m.changed()
	return ws, nil
}

func (m *Manager) changed() {
	if m.onChange != nil {
		m.onChange()
	}
}

// adopt registers an already-provisioned workspace (recovery). It bypasses
// the cap — workspaces that exist on disk are never refused — but still
// rejects duplicate names.
func (m *Manager) adopt(ws *Workspace) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byName[ws.name]; ok {
		return fmt.Errorf("server: workspace %q: %w", ws.name, ErrWorkspaceExists)
	}
	m.byName[ws.name] = ws
	return nil
}

// Delete removes the named workspace and releases its resources (queue,
// journal, data subdirectory). The entry is downgraded to a reservation
// under the lock — new requests immediately 404, and a concurrent Create
// of the same name is refused rather than allowed to rebuild the data
// directory while the teardown is still renaming it into the trash. The
// teardown itself — which waits out in-flight jobs — runs outside the
// lock so other tenants keep moving; only when it finishes is the name
// released for reuse.
func (m *Manager) Delete(name string) error {
	if name == DefaultWorkspace {
		return fmt.Errorf("server: %w", ErrDefaultWorkspace)
	}
	m.mu.Lock()
	ws, ok := m.byName[name]
	ok = ok && ws != nil // a reservation is not yet a deletable workspace
	if ok {
		m.byName[name] = nil // hold the name until the teardown completes
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: workspace %q %w", name, ErrNotFound)
	}
	if m.destroy != nil {
		m.destroy(ws)
	}
	m.mu.Lock()
	delete(m.byName, name)
	m.mu.Unlock()
	m.changed()
	return nil
}

// List returns the workspaces sorted by name.
func (m *Manager) List() []*Workspace {
	m.mu.RLock()
	out := make([]*Workspace, 0, len(m.byName))
	for _, ws := range m.byName {
		if ws != nil { // skip in-flight reservations
			out = append(out, ws)
		}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of live workspaces (the workspaces_active gauge).
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byName)
}
