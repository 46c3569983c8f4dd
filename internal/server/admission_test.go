package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ecr"
	"repro/internal/workload"
)

// limitedServer returns a quiet server with the given limits and its
// httptest wrapper.
func limitedServer(t testing.TB, limits Limits) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 2, QueueCapacity: 16, Limits: limits})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return srv, ts
}

// --- token bucket ---

func TestBucketTake(t *testing.T) {
	b := newBucket(10, 2) // 10 tokens/s, burst 2
	t0 := time.Now()

	// The bucket starts full: the burst admits immediately.
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("take %d refused on a full bucket", i)
		}
	}
	// Empty: refusal reports the deficit, one token at 10/s = 100ms.
	ok, wait := b.take(t0)
	if ok {
		t.Fatal("take admitted on an empty bucket")
	}
	if wait <= 90*time.Millisecond || wait > 110*time.Millisecond {
		t.Fatalf("deficit wait = %v, want ~100ms", wait)
	}

	// 100ms later exactly one token has accrued.
	t1 := t0.Add(100 * time.Millisecond)
	if ok, _ := b.take(t1); !ok {
		t.Fatal("token did not accrue after the deficit elapsed")
	}
	if ok, _ := b.take(t1); ok {
		t.Fatal("second token minted from a single refill interval")
	}

	// A long idle stretch caps at the burst, never beyond.
	t2 := t1.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t2); !ok {
			t.Fatalf("take %d refused after a long idle", i)
		}
	}
	if ok, _ := b.take(t2); ok {
		t.Fatal("bucket accrued beyond its burst")
	}
}

func TestBucketClockNeverRewinds(t *testing.T) {
	b := newBucket(1, 1)
	t0 := time.Now()
	if ok, _ := b.take(t0); !ok {
		t.Fatal("first take refused")
	}
	// A take with an earlier timestamp (goroutine scheduling skew) must
	// not mint tokens or panic; elapsed < 0 is ignored.
	if ok, _ := b.take(t0.Add(-time.Minute)); ok {
		t.Fatal("rewound clock minted a token")
	}
}

func TestClampRetryAfter(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-5, minRetryAfterSeconds},
		{0, minRetryAfterSeconds},
		{1, 1},
		{42, 42},
		{maxRetryAfterSeconds, maxRetryAfterSeconds},
		{100000, maxRetryAfterSeconds},
	} {
		if got := clampRetryAfter(tc.in); got != tc.want {
			t.Errorf("clampRetryAfter(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLimitsWithDefaults(t *testing.T) {
	l := Limits{}.withDefaults()
	if l.MaxBodyBytes != maxBodyBytes {
		t.Errorf("MaxBodyBytes default = %d, want %d", l.MaxBodyBytes, maxBodyBytes)
	}
	if l.WorkspaceBurst != 0 || l.KeyBurst != 0 {
		t.Errorf("bursts armed without rates: %+v", l)
	}
	l = Limits{WorkspaceRate: 2.5, KeyRate: 0.2}.withDefaults()
	if l.WorkspaceBurst != 5 {
		t.Errorf("WorkspaceBurst = %d, want ceil(2*2.5) = 5", l.WorkspaceBurst)
	}
	if l.KeyBurst != 1 {
		t.Errorf("KeyBurst = %d, want floor of 1", l.KeyBurst)
	}
}

// retryAfterSeconds on a fresh server (no measured integration latency,
// empty queue) must still answer at least the floor — never 0.
func TestRetryAfterSecondsFloor(t *testing.T) {
	srv, _ := limitedServer(t, Limits{})
	ws, err := srv.manager.Get(DefaultWorkspace)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.retryAfterSeconds(ws); got < minRetryAfterSeconds {
		t.Fatalf("retryAfterSeconds on a fresh server = %d, want >= %d", got, minRetryAfterSeconds)
	}
}

// --- rate limiting over HTTP ---

func TestWorkspaceRateLimitHTTP(t *testing.T) {
	srv, ts := limitedServer(t, Limits{WorkspaceRate: 0.001, WorkspaceBurst: 2})
	client := ts.Client()

	codes := map[int]int{}
	var retryAfter string
	for i := 0; i < 5; i++ {
		resp, err := client.Get(ts.URL + "/v1/schemas")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests {
			retryAfter = resp.Header.Get("Retry-After")
		}
	}
	if codes[http.StatusOK] != 2 || codes[http.StatusTooManyRequests] != 3 {
		t.Fatalf("status counts = %v, want 2x200 + 3x429", codes)
	}
	secs, err := strconv.Atoi(retryAfter)
	if err != nil || secs < minRetryAfterSeconds || secs > maxRetryAfterSeconds {
		t.Fatalf("429 Retry-After = %q, want an int in [%d, %d]",
			retryAfter, minRetryAfterSeconds, maxRetryAfterSeconds)
	}
	if got := srv.Metrics().Snapshot().Admission.RateLimitedTotal; got != 3 {
		t.Fatalf("rate_limited_total = %d, want 3", got)
	}

	// The health probe is admitOpen: never limited.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under rate limit = %d", resp.StatusCode)
	}
}

// Buckets are per workspace: exhausting one tenant's budget must not
// touch another's.
func TestRateLimitIsPerWorkspace(t *testing.T) {
	_, ts := limitedServer(t, Limits{WorkspaceRate: 0.001, WorkspaceBurst: 1})
	client := ts.Client()
	for _, name := range []string{"alpha", "beta"} {
		if status := doJSON(t, client, "POST", ts.URL+"/v1/workspaces",
			workspaceRequest{Name: name}, nil); status != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, status)
		}
	}
	// Drain alpha's single token, then verify beta still answers.
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		resp, err := client.Get(ts.URL + "/v1/workspaces/alpha/schemas")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("alpha request %d = %d, want %d", i, resp.StatusCode, want)
		}
	}
	resp, err := client.Get(ts.URL + "/v1/workspaces/beta/schemas")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta caught alpha's rate limit: %d", resp.StatusCode)
	}
}

// --- quotas ---

func TestSchemaQuota(t *testing.T) {
	srv, ts := limitedServer(t, Limits{MaxSchemas: 2})
	client := ts.Client()
	uploadPaperSchemas(t, client, ts.URL) // two schemas: at quota

	status := doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": "schema extra\nentity E {\n attr Id: int key\n}\n"}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("upload beyond MaxSchemas = %d, want 429", status)
	}
	if got := srv.Metrics().Snapshot().Admission.QuotaRejectionsTotal; got != 1 {
		t.Fatalf("quota_rejections_total = %d, want 1", got)
	}

	// Deleting one frees the slot.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/schemas/sc1", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	status = doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": "schema extra\nentity E {\n attr Id: int key\n}\n"}, nil)
	if status != http.StatusCreated {
		t.Fatalf("upload after delete = %d, want 201", status)
	}
}

func TestJobQuota(t *testing.T) {
	// A queue whose worker blocks until released: the quota counts
	// queued-plus-running, so with MaxJobs 2 the third submit refuses.
	release := make(chan struct{})
	q := NewQueue(1, 16, time.Minute, func(ctx context.Context, req JobRequest) (*IntegrationResult, error) {
		<-release
		return &IntegrationResult{}, nil
	})
	defer q.Kill()
	defer close(release)
	q.SetMaxJobs(2)

	for i := 0; i < 2; i++ {
		if _, err := q.Submit(JobRequest{Type: "integrate", Schema1: "a", Schema2: "b"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := q.Submit(JobRequest{Type: "integrate", Schema1: "a", Schema2: "b"})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("third submit error = %v, want ErrQuota", err)
	}
}

func TestQuotaEndpoint(t *testing.T) {
	_, ts := limitedServer(t, Limits{MaxSchemas: 4, MaxJobs: 8, MaxBodyBytes: 1 << 20})
	client := ts.Client()
	uploadPaperSchemas(t, client, ts.URL)

	var rep QuotaReport
	if status := doJSON(t, client, "GET", ts.URL+"/v1/quota", nil, &rep); status != http.StatusOK {
		t.Fatalf("quota status = %d", status)
	}
	if rep.Workspace != DefaultWorkspace {
		t.Errorf("workspace = %q", rep.Workspace)
	}
	if rep.Limits.MaxSchemas != 4 || rep.Limits.MaxJobs != 8 || rep.Limits.MaxBodyBytes != 1<<20 {
		t.Errorf("limits = %+v", rep.Limits)
	}
	if rep.Usage.Schemas != 2 {
		t.Errorf("usage.schemas = %d, want 2", rep.Usage.Schemas)
	}
	if rep.Usage.JournalBytes != 0 {
		t.Errorf("memory-only server reports journal bytes: %d", rep.Usage.JournalBytes)
	}
}

// --- body caps ---

func TestBodyTooLarge(t *testing.T) {
	srv, ts := limitedServer(t, Limits{MaxBodyBytes: 256})
	client := ts.Client()

	big := strings.Repeat("x", 600)
	status := doJSON(t, client, "POST", ts.URL+"/v1/schemas", map[string]string{"ddl": big}, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body = %d, want 413", status)
	}

	// The plain-text DDL path has its own reader; same cap, same 413.
	req, err := http.NewRequest("POST", ts.URL+"/v1/schemas", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized DDL body = %d, want 413", resp.StatusCode)
	}

	if got := srv.Metrics().Snapshot().Admission.BodyTooLargeTotal; got != 2 {
		t.Fatalf("body_too_large_total = %d, want 2", got)
	}

	// A body under the cap still works.
	status = doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": "schema s\nentity E {\n attr Id: int key\n}\n"}, nil)
	if status != http.StatusCreated {
		t.Fatalf("small body after cap = %d", status)
	}
}

// --- flood isolation ---

// TestFloodIsolation is the noisy-neighbor acceptance test: eight tenants
// share a server, one floods at ~50x the per-workspace rate, and the seven
// behaved tenants must see zero rejections and zero errors. Run under
// -race this also hammers the bucket/auth/metrics paths concurrently.
func TestFloodIsolation(t *testing.T) {
	const (
		tenants   = 8
		perTenant = 60 // requests each behaved tenant sends
		floodReqs = 1500
	)
	// Burst 120 covers each behaved tenant's whole run even if the race
	// detector serializes it into a burst; the flooder sends 1500.
	_, ts := limitedServer(t, Limits{WorkspaceRate: 100, WorkspaceBurst: 120})
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: tenants * 4}

	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant%d", i)
		if status := doJSON(t, client, "POST", ts.URL+"/v1/workspaces",
			workspaceRequest{Name: names[i]}, nil); status != http.StatusCreated {
			t.Fatalf("create %s: status %d", names[i], status)
		}
	}

	get := func(ws string) int {
		resp, err := client.Get(ts.URL + "/v1/workspaces/" + ws + "/schemas")
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
				t.Errorf("429 without a valid Retry-After (%q)", resp.Header.Get("Retry-After"))
			}
		}
		return resp.StatusCode
	}

	var wg sync.WaitGroup
	behavedBad := make([]int, tenants-1) // non-200 counts per behaved tenant
	var flood429 int
	for i := 0; i < tenants-1; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < perTenant; n++ {
				if get(names[id]) != http.StatusOK {
					behavedBad[id]++
				}
				time.Sleep(2 * time.Millisecond) // ~500/s offered, under burst
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < floodReqs; n++ { // no pacing: far beyond the budget
			if get(names[tenants-1]) == http.StatusTooManyRequests {
				flood429++
			}
		}
	}()
	wg.Wait()

	for id, bad := range behavedBad {
		if bad != 0 {
			t.Errorf("behaved tenant %d saw %d non-200 responses", id, bad)
		}
	}
	if flood429 == 0 {
		t.Error("flooding tenant was never rate-limited")
	}
}

// --- quota accounting across a crash ---

// TestQuotaSurvivesKill verifies admission state is rebuilt from the
// journal: schema counts (quota enforcement picks up where it left off)
// and journal-byte usage (byte-exact, recomputed from the file on open)
// survive an unclean death.
func TestQuotaSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	limits := Limits{MaxSchemas: 2, MaxJournalBytes: 1 << 20}

	srv, _, err := Open(Config{Workers: 2, QueueCapacity: 16, Limits: limits},
		DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	uploadPaperSchemas(t, client, ts.URL)

	var before QuotaReport
	if status := doJSON(t, client, "GET", ts.URL+"/v1/quota", nil, &before); status != http.StatusOK {
		t.Fatalf("quota status = %d", status)
	}
	if before.Usage.Schemas != 2 || before.Usage.JournalBytes == 0 {
		t.Fatalf("pre-kill usage = %+v", before.Usage)
	}

	// Crash: no drain, no snapshot. The journal is all that remains.
	ts.Close()
	srv.Kill()

	srv2, _, err := Open(Config{Workers: 2, QueueCapacity: 16, Limits: limits},
		DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()

	var after QuotaReport
	if status := doJSON(t, client2, "GET", ts2.URL+"/v1/quota", nil, &after); status != http.StatusOK {
		t.Fatalf("quota after restart = %d", status)
	}
	if after.Usage.Schemas != 2 {
		t.Fatalf("schemas after restart = %d, want 2", after.Usage.Schemas)
	}
	if after.Usage.JournalBytes != before.Usage.JournalBytes {
		t.Fatalf("journal bytes drifted across the kill: %d -> %d",
			before.Usage.JournalBytes, after.Usage.JournalBytes)
	}

	// The recovered count still enforces: a third schema is over quota.
	status := doJSON(t, client2, "POST", ts2.URL+"/v1/schemas",
		map[string]string{"ddl": "schema extra\nentity E {\n attr Id: int key\n}\n"}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("upload beyond recovered quota = %d, want 429", status)
	}
}

// TestJournalByteQuota fills a tiny journal budget and verifies mutations
// refuse with 429 + Retry-After while reads keep working.
func TestJournalByteQuota(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Open(Config{Workers: 2, QueueCapacity: 16, Limits: Limits{MaxJournalBytes: 64}},
		DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// The first upload passes (journal still under 64 bytes) and pushes
	// the file over; the next mutation must refuse.
	uploadPaperSchemas(t, client, ts.URL)
	req := equivalenceRequest{Schema1: "sc1", Attr1: "Student.Name", Schema2: "sc2", Attr2: "Grad_student.Name"}
	status := doJSON(t, client, "POST", ts.URL+"/v1/equivalences", req, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("mutation over journal quota = %d, want 429", status)
	}
	// Reads stay up: overload of the write path never blocks the read path.
	if status := doJSON(t, client, "GET", ts.URL+"/v1/schemas", nil, nil); status != http.StatusOK {
		t.Fatalf("read under journal quota = %d", status)
	}
}

// --- admission under sustained load ---

// raceDetector reports a -race build (race_test.go sets it).
var raceDetector bool

// Tokens TestAdmissionUnderLoad installs for its limited and overload
// phases: the admin key creates the workspaces, the data key carries the
// traffic.
const (
	loadAdminKey = "load-admin-key-1"
	loadDataKey  = "load-data-key-1"
)

// loadFixture is what every tenant uploads and replays: the workload
// generator's schema pair and one idempotent equivalence re-declare per
// shared object.
type loadFixture struct {
	schemaBodies [][]byte             // POST /schemas payloads, one per schema
	eqs          []equivalenceRequest // the re-declares
	eqBodies     [][]byte             // their POST /equivalences payloads
}

func newLoadFixture(t *testing.T) *loadFixture {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 1, Objects: 8, AttrsPerObject: 3, Overlap: 0.5, Relationships: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &loadFixture{}
	for _, sc := range []*ecr.Schema{w.S1, w.S2} {
		raw, err := ecr.EncodeJSON(sc)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]json.RawMessage{"schema": raw})
		if err != nil {
			t.Fatal(err)
		}
		f.schemaBodies = append(f.schemaBodies, body)
	}
	// The first attribute of every object present in both schemas. The
	// first declare merges the classes; every repeat is a registry no-op,
	// a mutation that stays 201.
	byName := map[string]*ecr.ObjectClass{}
	for _, o := range w.S2.Objects {
		byName[o.Name] = o
	}
	for _, o1 := range w.S1.Objects {
		o2, ok := byName[o1.Name]
		if !ok || len(o1.Attributes) == 0 || len(o2.Attributes) == 0 {
			continue
		}
		eq := equivalenceRequest{
			Schema1: w.S1.Name, Attr1: o1.Name + "." + o1.Attributes[0].Name,
			Schema2: w.S2.Name, Attr2: o2.Name + "." + o2.Attributes[0].Name,
		}
		body, err := json.Marshal(eq)
		if err != nil {
			t.Fatal(err)
		}
		f.eqs = append(f.eqs, eq)
		f.eqBodies = append(f.eqBodies, body)
	}
	if len(f.eqs) == 0 {
		t.Fatal("workload produced no shared objects")
	}
	return f
}

// loadTally counts one phase's outcomes.
type loadTally struct {
	sent          int
	ok            int           // 2xx
	okLatency     time.Duration // summed over the 2xx
	conflict      int           // 409
	rateLimited   int           // 429
	unavailable   int           // 503
	unexpected    map[int]int   // any other status
	transportErrs int
	badRetry      int // 429/503 without a Retry-After in [1, 300]
}

func (c loadTally) meanOK() time.Duration {
	if c.ok == 0 {
		return 0
	}
	return c.okLatency / time.Duration(c.ok)
}

func (c loadTally) String() string {
	return fmt.Sprintf("%d sent, %d 2xx (mean %v), 409 %d, 429 %d, 503 %d, unexpected %v, transport errors %d",
		c.sent, c.ok, c.meanOK(), c.conflict, c.rateLimited, c.unavailable, c.unexpected, c.transportErrs)
}

// loadPhase is one phase's server and the tally of its outcomes.
type loadPhase struct {
	name   string
	base   string // the server's URL
	token  string // bearer token for data-plane traffic ("" sends none)
	client *http.Client

	mu    sync.Mutex
	tally loadTally // guarded by mu
}

// result returns the phase's tally so far.
func (p *loadPhase) result() loadTally {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tally
}

// send issues one request with an optional bearer token and drains the
// response body; the status and headers stay readable.
func (p *loadPhase) send(method, path, token string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp, nil
}

// op issues tenant id's n-th request, round-robin over GET matrix, GET
// schemas, POST equivalences and GET resemblance, and tallies the answer.
func (p *loadPhase) op(f *loadFixture, id, n int) {
	method, path, body := "GET", "/v1/workspaces/"+loadTenant(id), []byte(nil)
	switch n % 4 {
	case 0:
		path += "/matrix?schema1=w1&schema2=w2"
	case 1:
		path += "/schemas"
	case 2:
		method, path, body = "POST", path+"/equivalences", f.eqBodies[(n/4)%len(f.eqBodies)]
	case 3:
		path += "/resemblance?schema1=w1&schema2=w2"
	}
	t0 := time.Now()
	resp, err := p.send(method, path, p.token, body)
	lat := time.Since(t0)
	code, badRetry := 0, false
	if err == nil {
		code = resp.StatusCode
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			badRetry = err != nil || secs < minRetryAfterSeconds || secs > maxRetryAfterSeconds
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	c := &p.tally
	c.sent++
	switch {
	case err != nil:
		c.transportErrs++
	case code >= 200 && code < 300:
		c.ok++
		c.okLatency += lat
	case code == http.StatusConflict:
		c.conflict++
	case code == http.StatusTooManyRequests:
		c.rateLimited++
	case code == http.StatusServiceUnavailable:
		c.unavailable++
	default:
		c.unexpected[code]++
	}
	if badRetry {
		c.badRetry++
	}
}

// loadTenant names tenant id's workspace.
func loadTenant(id int) string { return fmt.Sprintf("t%04d", id) }

// startLoadPhase starts a fresh server with the given limits (and, when
// keysPath is set, API keys) and gives every tenant a workspace holding
// the fixture's schema pair. Setup traffic is not tallied.
func startLoadPhase(t *testing.T, name string, limits Limits, keysPath string, f *loadFixture, tenants int) *loadPhase {
	t.Helper()
	srv := New(Config{Workers: 1, MaxWorkspaces: tenants + 8, Limits: limits})
	adminTok := ""
	p := &loadPhase{name: name, tally: loadTally{unexpected: map[int]int{}}}
	if keysPath != "" {
		if err := srv.SetKeysFile(keysPath); err != nil {
			t.Fatal(err)
		}
		adminTok, p.token = loadAdminKey, loadDataKey
	}
	ts := httptest.NewServer(srv.Handler())
	p.base = ts.URL
	p.client = &http.Client{
		Timeout:   15 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 4 * tenants, MaxIdleConnsPerHost: 4 * tenants},
	}
	t.Cleanup(func() {
		p.client.CloseIdleConnections()
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	for id := 0; id < tenants; id++ {
		tenant := loadTenant(id)
		body := fmt.Sprintf(`{"name":%q}`, tenant)
		if resp, err := p.send("POST", "/v1/workspaces", adminTok, []byte(body)); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: create %s: %v %v", name, tenant, resp, err)
		}
		for _, sb := range f.schemaBodies {
			if resp, err := p.send("POST", "/v1/workspaces/"+tenant+"/schemas", p.token, sb); err != nil || resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s: upload to %s: %v %v", name, tenant, resp, err)
			}
		}
		// Warm the tenant in process, past admission: make the first
		// declare of each pair and fill the similarity caches. Left cold,
		// those few slow requests per tenant would set the phase's mean.
		ws, err := srv.manager.Get(tenant)
		if err != nil {
			t.Fatal(err)
		}
		for _, eq := range f.eqs {
			if err := ws.store.DeclareEquivalence(eq.Schema1, eq.Attr1, eq.Schema2, eq.Attr2); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ws.store.RankedPairs("w1", "w2", false); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.store.Matrix("w1", "w2", false); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// driveLoad runs the open-loop arrival process for d: every tenant fires
// rate requests a second on its own clock, whether or not earlier ones
// have come back, the way real overload arrives. Each arrival goes to
// every phase's server at the same instant, so host noise lands on the
// phases alike; the order the requests are issued in rotates, so no phase
// is always first in line.
func driveLoad(phases []*loadPhase, f *loadFixture, tenants int, rate float64, d time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	deadline := time.Now().Add(d)
	var pacers, inflight sync.WaitGroup
	for id := 0; id < tenants; id++ {
		pacers.Add(1)
		go func(id int) {
			defer pacers.Done()
			// A staggered start keeps the arrivals smooth instead of
			// firing every tenant on the same tick.
			rng := rand.New(rand.NewSource(int64(id) + 1))
			time.Sleep(time.Duration(rng.Int63n(int64(interval))))
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for n, now := 0, time.Now(); now.Before(deadline); n, now = n+1, <-tick.C {
				for k := range phases {
					p := phases[(id+n+k)%len(phases)]
					inflight.Add(1)
					go func(n int) {
						defer inflight.Done()
						p.op(f, id, n)
					}(n)
				}
			}
		}(id)
	}
	pacers.Wait()
	inflight.Wait()
}

// TestAdmissionUnderLoad checks the admission layer's overload contract
// end to end under open-loop load from many tenants. Three phases, each
// on a fresh server:
//
//   - baseline: admission off; prices the happy path;
//   - limited: quotas, API keys and a per-workspace rate of four times the
//     offered load; admission runs on every request but refuses none, and
//     its mean 2xx latency may exceed the baseline's by at most 5% or
//     200µs;
//   - overload: the same with the rate at half the offered load; 429s
//     must appear.
//
// In every phase each status is 2xx, 409, 429 or 503, every 429 and 503
// carries a Retry-After in [1, 300] seconds, and transport errors stay
// within 1% of the requests sent.
//
// The phases run side by side, each arrival fired at all three servers,
// not one after another: run in turn, identical phases on a shared host
// differed in mean latency by a third, far beyond the 5% being checked.
//
// Sizing: 32 tenants at 2 req/s each per server, 192 req/s offered in
// all, for 10s: 640 requests a phase, so one request stalled 80ms by the
// host moves its phase's mean by 125µs, not the whole 200µs being
// checked. Under the race detector requests are about ten times slower
// and their latency tail far longer, so the run lasts four times as long.
// The overload bucket refills 1 token/s and its burst of 2 is spent by the
// schema uploads, so each tenant can be admitted about half of what it
// sends.
func TestAdmissionUnderLoad(t *testing.T) {
	const (
		tenants  = 32
		rate     = 2.0 // requests per second per tenant and server
		duration = 10 * time.Second
		// Happy-path overhead tolerance, limits on against limits off. The
		// absolute slack keeps sub-millisecond loopback latencies from
		// failing on scheduler noise.
		maxOverhead   = 0.05
		overheadSlack = 200 * time.Microsecond
	)
	d := duration
	if raceDetector {
		d *= 4
	}
	f := newLoadFixture(t)
	keys := writeKeys(t, t.TempDir(), loadAdminKey+" admin\n"+loadDataKey+" data *\n")
	headroom := Limits{MaxSchemas: 8, MaxJobs: 32, WorkspaceRate: 4 * rate}
	choke := headroom
	choke.WorkspaceRate = rate / 2

	base := startLoadPhase(t, "baseline", Limits{}, "", f, tenants)
	lim := startLoadPhase(t, "limited", headroom, keys, f, tenants)
	over := startLoadPhase(t, "overload", choke, keys, f, tenants)
	phases := []*loadPhase{base, lim, over}
	driveLoad(phases, f, tenants, rate, d)

	for _, p := range phases {
		c := p.result()
		t.Logf("%s: %v", p.name, c)
		if len(c.unexpected) > 0 {
			t.Errorf("%s: unexpected statuses %v", p.name, c.unexpected)
		}
		if c.badRetry > 0 {
			t.Errorf("%s: %d rejections without a valid Retry-After", p.name, c.badRetry)
		}
		if c.transportErrs > c.sent/100 {
			t.Errorf("%s: %d transport errors of %d sent", p.name, c.transportErrs, c.sent)
		}
		if c.ok == 0 {
			t.Errorf("%s: no request succeeded", p.name)
		}
	}
	b, l, o := base.result(), lim.result(), over.result()
	if b.rateLimited > 0 {
		t.Errorf("baseline: %d requests rate-limited despite headroom", b.rateLimited)
	}
	if l.rateLimited > 0 {
		t.Errorf("limited: %d requests rate-limited despite headroom", l.rateLimited)
	}
	if o.rateLimited == 0 {
		t.Error("overload: no 429s despite offered load above the rate limit")
	}
	bm, lm := b.meanOK(), l.meanOK()
	if frac := float64(lm-bm) / float64(bm); frac > maxOverhead && lm-bm > overheadSlack {
		t.Errorf("admission overhead %.1f%% exceeds %.0f%% and %v (baseline mean %v, limited mean %v)",
			100*frac, 100*maxOverhead, overheadSlack, bm, lm)
	}
}

// --- limiter fast-path benchmarks (CI smoke runs these) ---

// BenchmarkBucketTake prices the limiter's hot path: one mutex'd refill
// and spend. Zero allocations.
func BenchmarkBucketTake(b *testing.B) {
	bk := newBucket(1e12, 1<<30)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bk.take(now)
	}
}

// BenchmarkRateLimitedRejection prices a full server-side 429: admission
// refusal ahead of any handler work, static body, no JSON encoder.
func BenchmarkRateLimitedRejection(b *testing.B) {
	srv := New(Config{Workers: 1, QueueCapacity: 4, Limits: Limits{WorkspaceRate: 1e-9, WorkspaceBurst: 1}})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	req := httptest.NewRequest("GET", "/v1/schemas", nil)
	// Drain the single token so every measured iteration is a rejection.
	h.ServeHTTP(httptest.NewRecorder(), req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := nullResponseWriter{h: make(http.Header, 4)}
		h.ServeHTTP(w, req)
	}
}

// BenchmarkAdmittedRead prices the happy path through the full admission
// chain (no keys, generous bucket) for comparison against the same route
// with admission disabled.
func BenchmarkAdmittedRead(b *testing.B) {
	for _, tc := range []struct {
		name   string
		limits Limits
	}{
		{"limits-off", Limits{}},
		{"limits-on", Limits{MaxSchemas: 100, WorkspaceRate: 1e12, WorkspaceBurst: 1 << 30}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv := New(Config{Workers: 1, QueueCapacity: 4, Limits: tc.limits})
			defer srv.Shutdown(context.Background())
			h := srv.Handler()
			req := httptest.NewRequest("GET", "/v1/schemas", nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := nullResponseWriter{h: make(http.Header, 4)}
				h.ServeHTTP(w, req)
			}
		})
	}
}

// nullResponseWriter discards the response; benchmarks measure the server,
// not a recorder's buffer growth.
type nullResponseWriter struct{ h http.Header }

func (w nullResponseWriter) Header() http.Header         { return w.h }
func (w nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nullResponseWriter) WriteHeader(int)             {}
