package server

import (
	"net/http"
	"testing"
	"time"
)

// The functions below sit on the server's hot read paths: every admitted
// request, every cached similarity or assertion read. Each test pins the
// function's allocation count with testing.AllocsPerRun; a function may
// allocate only the results it returns, and these return nothing new.

// wantAllocs fails the test unless f allocates exactly want times a run.
func wantAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, f); got != want {
		t.Errorf("%s: %v allocations a call, want %v", name, got, want)
	}
}

func TestBucketTakeAllocs(t *testing.T) {
	now := time.Now()
	admit := newBucket(1e12, 1<<30)
	wantAllocs(t, "bucket.take admitting", 0, func() { admit.take(now) })

	refuse := newBucket(1e-9, 1)
	refuse.take(now) // spend the only token
	wantAllocs(t, "bucket.take refusing", 0, func() {
		if ok, _ := refuse.take(now); ok {
			t.Fatal("an empty bucket admitted")
		}
	})
}

func TestSimLookupHitAllocs(t *testing.T) {
	st := paperStore(t)
	if _, err := st.RankedPairs("sc1", "sc2", false); err != nil {
		t.Fatal(err)
	}
	key := simKey{schema1: "sc1", schema2: "sc2"}
	wantAllocs(t, "Store.simLookup hit", 0, func() {
		st.mu.RLock()
		_, ok := st.simLookup(key)
		st.mu.RUnlock()
		if !ok {
			t.Fatal("similarity cache missed after RankedPairs")
		}
	})
}

func TestSimStoreAllocs(t *testing.T) {
	st := paperStore(t)
	pairs, err := st.RankedPairs("sc1", "sc2", false)
	if err != nil {
		t.Fatal(err)
	}
	key := simKey{schema1: "sc1", schema2: "sc2"}
	wantAllocs(t, "Store.simStore over an existing key", 0, func() {
		st.mu.RLock()
		st.simStore(key, simEntry{pairs: pairs})
		st.mu.RUnlock()
	})
}

func TestAssertionsCachedAllocs(t *testing.T) {
	st := paperStore(t)
	declarePaperEquivalences(t, st)
	if _, _, err := st.Assert("sc1", "Department", 1, "sc2", "Department", false); err != nil {
		t.Fatal(err)
	}
	first, err := st.Assertions("sc1", "sc2", false)
	if err != nil {
		t.Fatal(err)
	}
	wantAllocs(t, "Store.Assertions cached read", 0, func() {
		got, err := st.Assertions("sc1", "sc2", false)
		if err != nil || len(got) != len(first) {
			t.Fatalf("cached read: %d entries, %v; want %d", len(got), err, len(first))
		}
	})
}

// discardResponse keeps one header map and drops the body, so a write
// through it allocates only what the writer itself allocates.
type discardResponse struct{ h http.Header }

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardResponse) WriteHeader(int)             {}

// TestResemblanceBodyAllocs pins the write of a cached 40×40 ranking, the
// design loop's largest read (~360 KB): once a buffer is warm, the only
// allocation left is the Content-Type header value.
func TestResemblanceBodyAllocs(t *testing.T) {
	st := workloadStore(t, 1, 40)
	pairs, err := st.RankedPairs("w1", "w2", false)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardResponse{h: http.Header{}}
	writePairs(w, pairs) // warm a buffer
	if got := testing.AllocsPerRun(100, func() {
		cached, _ := st.RankedPairs("w1", "w2", false)
		if len(cached) != 40*40 {
			t.Fatalf("ranking has %d pairs, want %d", len(cached), 40*40)
		}
		writePairs(w, cached)
	}); got > 1 {
		t.Errorf("cached ranking write: %v allocations a call, want at most 1", got)
	}
}
