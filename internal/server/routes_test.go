package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// routeClass is the admission a route must run behind.
type routeClass string

const (
	classOpen       routeClass = "open"        // no key, no limit: admitOpen
	classPeer       routeClass = "peer"        // admin key, never rate-limited: admitPeer
	classAdmin      routeClass = "admin"       // admin key and its bucket: admitAdmin
	classGatedAdmin routeClass = "gated admin" // admin, and a follower redirects it: admitAdmin(gate(h))
	classRead       routeClass = "read"        // data key for the workspace, both buckets: admitRead
	classMutate     routeClass = "mutate"      // read, and a follower redirects it: admitMutate
)

// routeClasses is the server's whole served surface, each pattern with the
// admission it needs. A route registered but missing here, or listed here
// but not registered, fails TestRouteTable.
var routeClasses = map[string]routeClass{
	"GET /healthz": classOpen,
	"GET /metrics": classAdmin,

	"GET /v1/workspaces":         classAdmin,
	"POST /v1/workspaces":        classGatedAdmin,
	"GET /v1/workspaces/{ws}":    classRead,
	"DELETE /v1/workspaces/{ws}": classGatedAdmin,

	"POST /v1/schemas":                            classMutate,
	"POST /v1/workspaces/{ws}/schemas":            classMutate,
	"GET /v1/schemas":                             classRead,
	"GET /v1/workspaces/{ws}/schemas":             classRead,
	"GET /v1/schemas/{name}":                      classRead,
	"GET /v1/workspaces/{ws}/schemas/{name}":      classRead,
	"DELETE /v1/schemas/{name}":                   classMutate,
	"DELETE /v1/workspaces/{ws}/schemas/{name}":   classMutate,
	"POST /v1/equivalences":                       classMutate,
	"POST /v1/workspaces/{ws}/equivalences":       classMutate,
	"GET /v1/equivalences":                        classRead,
	"GET /v1/workspaces/{ws}/equivalences":        classRead,
	"GET /v1/resemblance":                         classRead,
	"GET /v1/workspaces/{ws}/resemblance":         classRead,
	"GET /v1/matrix":                              classRead,
	"GET /v1/workspaces/{ws}/matrix":              classRead,
	"GET /v1/suggestions":                         classRead,
	"GET /v1/workspaces/{ws}/suggestions":         classRead,
	"POST /v1/assertions":                         classMutate,
	"POST /v1/workspaces/{ws}/assertions":         classMutate,
	"GET /v1/assertions":                          classRead,
	"GET /v1/workspaces/{ws}/assertions":          classRead,
	"DELETE /v1/assertions":                       classMutate,
	"DELETE /v1/workspaces/{ws}/assertions":       classMutate,
	"GET /v1/assertions/explain":                  classRead,
	"GET /v1/workspaces/{ws}/assertions/explain":  classRead,
	"POST /v1/integrate":                          classRead,
	"POST /v1/workspaces/{ws}/integrate":          classRead,
	"POST /v1/integrations":                       classMutate,
	"POST /v1/workspaces/{ws}/integrations":       classMutate,
	"GET /v1/integrations":                        classRead,
	"GET /v1/workspaces/{ws}/integrations":        classRead,
	"GET /v1/integrations/{name}":                 classRead,
	"GET /v1/workspaces/{ws}/integrations/{name}": classRead,
	"POST /v1/rows":                               classMutate,
	"POST /v1/workspaces/{ws}/rows":               classMutate,
	"POST /v1/query":                              classRead,
	"POST /v1/workspaces/{ws}/query":              classRead,
	"POST /v1/jobs":                               classMutate,
	"POST /v1/workspaces/{ws}/jobs":               classMutate,
	"GET /v1/jobs":                                classRead,
	"GET /v1/workspaces/{ws}/jobs":                classRead,
	"GET /v1/jobs/{id}":                           classRead,
	"GET /v1/workspaces/{ws}/jobs/{id}":           classRead,
	"GET /v1/quota":                               classRead,
	"GET /v1/workspaces/{ws}/quota":               classRead,

	"GET /v1/replication/workspaces":               classPeer,
	"GET /v1/replication/workspaces/{ws}/snapshot": classPeer,
	"GET /v1/replication/workspaces/{ws}/records":  classPeer,
	"POST /v1/promote":                             classAdmin,
}

// Route-table test tokens: an admin key, a data key for every workspace
// and a data key for a workspace the requests never address.
const (
	routeAdminKey    = "route-admin-key"
	routeDataAllKey  = "route-data-all-key"
	routeDataElseKey = "route-data-else-key"
)

// serveRoute serves one request for pattern on h, with token as its bearer
// key ("" sends none). Path wildcards name the default workspace and
// objects that need not exist: every check below either stops in
// admission or only looks at a status admission would write.
func serveRoute(h http.Handler, pattern, token string) *httptest.ResponseRecorder {
	method, path, _ := strings.Cut(pattern, " ")
	path = strings.NewReplacer("{ws}", DefaultWorkspace, "{name}", "sc1", "{id}", "job-1").Replace(path)
	var body io.Reader
	if method != "GET" {
		body = strings.NewReader("{}")
	}
	req := httptest.NewRequest(method, path, body)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestRouteTable holds every registered pattern to its admission class by
// behaviour. The recorded route table (Server.handle is the only way onto
// the serving mux) must equal routeClasses. Then, on a keyed leader whose
// per-key buckets hold one token: no key is 401 except on open routes; a
// data key for every workspace is 403 on admin and peer routes; a data key
// for another workspace is 403 on read and mutate routes; an admin key
// with its token spent is 429 on admin, read and mutate routes and never
// on peer or open ones. On a follower, exactly the mutate and gated-admin
// routes answer 421 with a Location.
func TestRouteTable(t *testing.T) {
	leader := New(Config{Workers: 1, QueueCapacity: 4, Limits: Limits{KeyRate: 1e-9, KeyBurst: 1}})
	t.Cleanup(func() { _ = leader.Shutdown(context.Background()) })
	keys := writeKeys(t, t.TempDir(), routeAdminKey+" admin\n"+
		routeDataAllKey+" data *\n"+routeDataElseKey+" data elsewhere\n")
	if err := leader.SetKeysFile(keys); err != nil {
		t.Fatal(err)
	}

	var patterns []string
	recorded := map[string]bool{}
	for _, r := range leader.table {
		patterns = append(patterns, r.pattern)
		recorded[r.pattern] = true
		if _, ok := routeClasses[r.pattern]; !ok {
			t.Errorf("route %q is registered but has no class in routeClasses", r.pattern)
		}
	}
	for p := range routeClasses {
		if !recorded[p] {
			t.Errorf("routeClasses lists %q, which is not registered", p)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	slices.Sort(patterns)
	h := leader.Handler()

	for _, p := range patterns {
		w := serveRoute(h, p, "")
		switch {
		case routeClasses[p] == classOpen && w.Code == http.StatusUnauthorized:
			t.Errorf("%s (open) without a key: 401", p)
		case routeClasses[p] != classOpen && w.Code != http.StatusUnauthorized:
			t.Errorf("%s (%s) without a key: %d, want 401", p, routeClasses[p], w.Code)
		case routeClasses[p] != classOpen && w.Header().Get("WWW-Authenticate") == "":
			t.Errorf("%s (%s) without a key: 401 without WWW-Authenticate", p, routeClasses[p])
		}
	}

	for _, p := range patterns {
		switch c := routeClasses[p]; c {
		case classAdmin, classGatedAdmin, classPeer:
			if w := serveRoute(h, p, routeDataAllKey); w.Code != http.StatusForbidden {
				t.Errorf("%s (%s) with a data key: %d, want 403", p, c, w.Code)
			}
		case classRead, classMutate:
			if w := serveRoute(h, p, routeDataElseKey); w.Code != http.StatusForbidden {
				t.Errorf("%s (%s) with another workspace's data key: %d, want 403", p, c, w.Code)
			}
		}
	}

	sum := sha256.Sum256([]byte(routeAdminKey))
	admin := leader.effectiveKeys().byHash[hex.EncodeToString(sum[:])]
	for {
		if ok, _ := admin.bucket.take(time.Now()); !ok {
			break
		}
	}
	for _, p := range patterns {
		w := serveRoute(h, p, routeAdminKey)
		switch c := routeClasses[p]; c {
		case classAdmin, classGatedAdmin, classRead, classMutate:
			if w.Code != http.StatusTooManyRequests {
				t.Errorf("%s (%s) with a spent admin key: %d, want 429", p, c, w.Code)
			}
		default:
			if w.Code == http.StatusTooManyRequests {
				t.Errorf("%s (%s) with a spent admin key: 429, want no per-key limit", p, c)
			}
		}
	}

	// The follower: no keys, so every request reaches the follower gate.
	dirL, dirF := t.TempDir(), t.TempDir()
	primary, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	defer primary.Kill()
	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	waitFor(t, 10*time.Second, func() bool { return caughtUp(primary, follower) }, "the follower to catch up")
	fh := follower.Handler()
	promote := "POST /v1/promote" // it changes the role, so it is served last
	for _, p := range append(slices.DeleteFunc(patterns, func(p string) bool { return p == promote }), promote) {
		w := serveRoute(fh, p, "")
		switch c := routeClasses[p]; c {
		case classMutate, classGatedAdmin:
			if w.Code != http.StatusMisdirectedRequest || !strings.HasPrefix(w.Header().Get("Location"), ts.URL+"/") {
				t.Errorf("%s (%s) on a follower: %d, Location %q; want 421 to the leader", p, c, w.Code, w.Header().Get("Location"))
			}
		default:
			if w.Code == http.StatusMisdirectedRequest {
				t.Errorf("%s (%s) on a follower: 421, want it served", p, c)
			}
		}
	}
}
