package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Microsecond) // <= 1ms
	h.Observe(3 * time.Millisecond)   // <= 5ms
	h.Observe(time.Minute)            // +inf
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Errorf("count = %d", snap.Count)
	}
	if len(snap.Buckets) != len(latencyBuckets)+1 {
		t.Fatalf("buckets = %d", len(snap.Buckets))
	}
	if snap.Buckets[0].LE != "1ms" || snap.Buckets[0].Count != 1 {
		t.Errorf("bucket 0 = %+v", snap.Buckets[0])
	}
	if snap.Buckets[1].LE != "5ms" || snap.Buckets[1].Count != 2 {
		t.Errorf("bucket 1 = %+v", snap.Buckets[1])
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.LE != "inf" || last.Count != 3 {
		t.Errorf("last bucket = %+v", last)
	}
	// Cumulative counts never decrease.
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].Count < snap.Buckets[i-1].Count {
			t.Errorf("bucket %d not cumulative: %+v", i, snap.Buckets)
		}
	}
}

func TestBucketLabels(t *testing.T) {
	want := []string{"1ms", "5ms", "25ms", "100ms", "500ms", "2500ms", "10s"}
	for i, b := range latencyBuckets {
		if got := formatBound(b); got != want[i] {
			t.Errorf("formatBound(%v) = %q, want %q", b, got, want[i])
		}
	}
}

func TestMetricsRequestsAndJobs(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("GET /healthz", 200)
	m.ObserveRequest("GET /healthz", 204)
	m.ObserveRequest("POST /v1/schemas", 400)
	m.ObserveRequest("POST /v1/schemas", 503)
	m.ObserveJob(DefaultWorkspace, JobQueued)
	m.ObserveJob(DefaultWorkspace, JobRunning)
	m.ObserveJob(DefaultWorkspace, JobDone)

	snap := m.Snapshot()
	if snap.Requests["GET /healthz"]["2xx"] != 2 {
		t.Errorf("healthz 2xx = %v", snap.Requests)
	}
	if snap.Requests["POST /v1/schemas"]["4xx"] != 1 || snap.Requests["POST /v1/schemas"]["5xx"] != 1 {
		t.Errorf("schemas counts = %v", snap.Requests)
	}
	if snap.Jobs["done"] != 1 || snap.Jobs["queued"] != 1 {
		t.Errorf("jobs = %v", snap.Jobs)
	}
	if snap.Workspaces[DefaultWorkspace].JobsFinished != 1 {
		t.Errorf("workspace counters = %+v", snap.Workspaces)
	}
	if snap.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", snap.UptimeSeconds)
	}

	// The live gauges are read from the workspaces when /metrics renders:
	// queue depth summed over every workspace's queue, and the live
	// workspace count. A single-worker queue whose jobs block keeps the
	// backlog under test control: one running plus six buffered.
	srv := New(Config{Workers: 1})
	block := make(chan struct{})
	ws := srv.defaultWS()
	old := ws.queue
	ws.queue = NewQueue(1, 8, 0, func(ctx context.Context, req JobRequest) (*IntegrationResult, error) {
		select {
		case <-block:
			return &IntegrationResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer func() {
		close(block)
		ws.queue.Shutdown(context.Background())
		old.Shutdown(context.Background())
		_ = srv.Shutdown(context.Background())
	}()
	for i := 0; i < 7; i++ {
		if _, err := ws.queue.Submit(JobRequest{Type: "integrate", Schema1: "a", Schema2: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"alpha", "beta"} {
		if _, err := srv.manager.Create(name); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	snap = MetricsSnapshot{}
	if status := doJSON(t, ts.Client(), "GET", ts.URL+"/metrics", nil, &snap); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if snap.QueueDepth != 7 {
		t.Errorf("queueDepth = %d, want 7", snap.QueueDepth)
	}
	if snap.WorkspacesActive != 3 {
		t.Errorf("workspaces_active = %d, want 3", snap.WorkspacesActive)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.ObserveRequest("GET /x", 200)
				m.ObserveJob(DefaultWorkspace, JobDone)
				m.IntegrationLatency.Observe(time.Millisecond)
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Requests["GET /x"]["2xx"] != 800 || snap.Jobs["done"] != 800 || snap.IntegrationLatency.Count != 800 {
		t.Errorf("snapshot = %+v", snap)
	}
}
