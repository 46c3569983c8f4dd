package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestMetricsShape pins the /metrics JSON layout that outside scrapers
// (perfbench among them) read: every key path, which optional sections
// appear on which role, and which omitempty fields stay out. Each of a
// memory-only server, a durable leader and a caught-up follower serves
// the paper's running example, then one scrape is flattened to its
// sorted key paths ("a.b.c"; array elements as "[]") and compared with
// the pinned list.
func TestMetricsShape(t *testing.T) {
	// Shared by all three roles. requestsByRoute keys are the routes the
	// scenario exercised, so they are part of the shape too.
	common := []string{
		"admission.auth_failures_total",
		"admission.body_too_large_total",
		"admission.quota_rejections_total",
		"admission.rate_limited_total",
		"closure_cache_hits",
		"closure_cache_misses",
		"closure_conflicts_total",
		"closure_derived_total",
		"integrationLatency.buckets[].count",
		"integrationLatency.buckets[].le",
		"integrationLatency.count",
		"integrationLatency.sumSeconds",
		"jobs",
		"panicsTotal",
		"queueDepth",
		"replication.role",
		"similarity_cache_hits",
		"similarity_cache_misses",
		"uptimeSeconds",
		"workspaces.default.integrations",
		"workspaces.default.jobsFinished",
		"workspaces_active",
	}
	writer := []string{
		"requestsByRoute.GET /v1/workspaces/{ws}/matrix.2xx",
		"requestsByRoute.POST /v1/assertions.2xx",
		"requestsByRoute.POST /v1/equivalences.2xx",
		"requestsByRoute.POST /v1/integrate.2xx",
		"requestsByRoute.POST /v1/schemas.2xx",
		"schema_parses.dictionary",
	}
	journaled := []string{
		"journal.compactions_total",
		"journal.journal_appends_total",
		"journal.journal_errors_total",
		"journal.journal_fsync_seconds.buckets[].count",
		"journal.journal_fsync_seconds.buckets[].le",
		"journal.journal_fsync_seconds.count",
		"journal.journal_fsync_seconds.sumSeconds",
		"journal.recovered_jobs",
		"journal.recovered_workspaces",
		"journal.snapshot_age_seconds",
	}
	follower := []string{
		"replication.bytes_applied",
		"replication.leader",
		"replication.records_applied",
		"replication.workspaces.default.applied_seq",
		"replication.workspaces.default.lag_bytes",
		"replication.workspaces.default.lag_records",
		"replication.workspaces.default.leader_seq",
		"requestsByRoute.GET /v1/workspaces/{ws}/matrix.2xx",
		"requestsByRoute.POST /v1/integrate.2xx",
	}
	join := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		sort.Strings(out)
		return out
	}

	// drive plays the writes (leaders only) and the reads every role
	// serves: one similarity matrix and one synchronous integration.
	drive := func(client *http.Client, base string, writes bool) {
		if writes {
			populatePaperWorkspace(t, client, base)
		}
		if status := doJSON(t, client, "GET", base+"/v1/workspaces/default/matrix?schema1=sc1&schema2=sc2", nil, nil); status != http.StatusOK {
			t.Fatalf("matrix: status %d", status)
		}
		if status := doJSON(t, client, "POST", base+"/v1/integrate",
			JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, nil); status != http.StatusOK {
			t.Fatalf("integrate: status %d", status)
		}
	}

	t.Run("memory", func(t *testing.T) {
		_, ts := testServer(t)
		drive(ts.Client(), ts.URL, true)
		checkMetricsShape(t, ts.Client(), ts.URL, join(common, writer))
	})

	dirL := t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	defer leader.Kill()
	ls := httptest.NewServer(leader.Handler())
	defer ls.Close()
	t.Run("leader", func(t *testing.T) {
		drive(ls.Client(), ls.URL, true)
		// Scraped before the follower attaches, so its replication
		// requests stay out of requestsByRoute.
		checkMetricsShape(t, ls.Client(), ls.URL, join(common, writer, journaled))
	})

	t.Run("follower", func(t *testing.T) {
		fol := openFollower(t, t.TempDir(), ls.URL)
		defer fol.Kill()
		waitFor(t, 10*time.Second, func() bool { return caughtUp(leader, fol) }, "follower to catch up")
		fs := httptest.NewServer(fol.Handler())
		defer fs.Close()
		drive(fs.Client(), fs.URL, false)
		checkMetricsShape(t, fs.Client(), fs.URL, join(common, journaled, follower))
	})
}

// checkMetricsShape scrapes base's /metrics once and compares its key
// paths with want.
func checkMetricsShape(t *testing.T, client *http.Client, base string, want []string) {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", resp.StatusCode, body)
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	got := keyPaths(doc)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/metrics key paths changed\ngot:\n%s\nwant:\n%s\nbody: %s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), body)
	}
}

// keyPaths flattens a decoded JSON document to its sorted, distinct leaf
// paths. An empty object or array is a leaf under its own path.
func keyPaths(doc any) []string {
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			if len(v) == 0 {
				seen[prefix] = true
			}
			for k, child := range v {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, child)
			}
		case []any:
			if len(v) == 0 {
				seen[prefix] = true
			}
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		default:
			seen[prefix] = true
		}
	}
	walk("", doc)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
