package journal

import "testing"

// TestTailSinceAllocs pins the leader side of every follower poll to one
// allocation: the buffer it returns. Index lookup and the ranged read under
// the journal lock allocate nothing else.
func TestTailSinceAllocs(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	appendN(t, j, 20)
	got := testing.AllocsPerRun(100, func() {
		data, _, last, err := j.TailSince(10)
		if err != nil || len(data) == 0 || last != 20 {
			t.Fatalf("TailSince(10): %d bytes, last %d, %v", len(data), last, err)
		}
	})
	if got != 1 {
		t.Errorf("Journal.TailSince: %v allocations a call, want 1 (the returned buffer)", got)
	}
}
