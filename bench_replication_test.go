// Replication benchmarks: follower catch-up throughput (bootstrap plus
// tail replay of a populated leader journal), steady-state propagation lag
// for a single record, and the read path served by a follower against the
// same read on the leader. BENCH_replication.json records the numbers.
//
// Run with: go test -run='^$' -bench 'FollowerCatchUp|ReplicationPropagation|ReplicaRead' -benchmem .
package repro_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

// benchLeader opens a durable leader on a fresh directory, serves it over
// httptest, loads the paper schemas and journals extra assertion records
// until the journal holds at least records entries.
func benchLeader(b *testing.B, records int) (*server.Server, *httptest.Server) {
	b.Helper()
	srv, _, err := server.Open(server.Config{Workers: 1},
		server.DurabilityConfig{Dir: b.TempDir(), Sync: journal.SyncNever, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Kill)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)

	ddl, err := os.ReadFile("testdata/paper.ecr")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Store().AddSchemasDDL(string(ddl)); err != nil {
		b.Fatal(err)
	}
	for srv.Journal().Seq() < uint64(records) {
		if _, _, err := srv.Store().Assert("sc1", "Student", 5, "sc2", "Faculty", false); err != nil {
			b.Fatal(err)
		}
	}
	return srv, ts
}

// benchFollower opens a follower of the given leader and waits until its
// journal has caught up to seq.
func benchFollower(b *testing.B, dir, leaderURL string, seq uint64) *server.Server {
	b.Helper()
	f, _, err := server.Open(
		server.Config{Workers: 1, Follow: &server.FollowerConfig{Leader: leaderURL, PollInterval: time.Millisecond}},
		server.DurabilityConfig{Dir: dir, Sync: journal.SyncNever, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for f.Journal().Seq() < seq {
		time.Sleep(100 * time.Microsecond)
	}
	return f
}

// BenchmarkFollowerCatchUp measures a cold follower replicating a
// populated leader from scratch: snapshot bootstrap is disabled on the
// leader (nothing compacted), so every record rides the tail stream and
// lands in the follower's journal before the in-memory apply.
func BenchmarkFollowerCatchUp(b *testing.B) {
	for _, records := range []int{512, 2048} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			leader, ts := benchLeader(b, records)
			seq := leader.Journal().Seq()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := benchFollower(b, b.TempDir(), ts.URL, seq)
				b.StopTimer()
				f.Kill()
				b.StartTimer()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(records)*float64(b.N)/secs, "records/s")
			}
		})
	}
}

// BenchmarkReplicationPropagation measures steady-state lag: the time from
// a leader append until the record is durable in a caught-up follower's
// journal. The leader holds workspaces=N workspaces and every append lands
// in the default one; the follower holds a long-poll on the leader's
// workspace list, so the append's wakeup drives the transfer rather than
// the poll interval, whatever the number of workspaces.
func BenchmarkReplicationPropagation(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("workspaces=%d", n), func(b *testing.B) {
			leader, ts := benchLeader(b, 8)
			for i := 1; i < n; i++ {
				if _, err := leader.Workspaces().Create(fmt.Sprintf("idle-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			f := benchFollower(b, b.TempDir(), ts.URL, leader.Journal().Seq())
			defer f.Kill()
			for f.Workspaces().Len() < n {
				time.Sleep(100 * time.Microsecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := leader.Store().Assert("sc1", "Student", 5, "sc2", "Faculty", false); err != nil {
					b.Fatal(err)
				}
				want := leader.Journal().Seq()
				for f.Journal().Seq() < want {
					time.Sleep(20 * time.Microsecond)
				}
			}
		})
	}
}

// BenchmarkReplicaRead compares the same read served by the leader and by
// a caught-up follower: both roles answer from the versioned store cache,
// so followers add read capacity at the leader's per-read cost.
func BenchmarkReplicaRead(b *testing.B) {
	leader, ts := benchLeader(b, 8)
	f := benchFollower(b, b.TempDir(), ts.URL, leader.Journal().Seq())
	defer f.Kill()
	fs := httptest.NewServer(f.Handler())
	defer fs.Close()

	for _, role := range []struct {
		name string
		base string
	}{{"leader", ts.URL}, {"follower", fs.URL}} {
		b.Run("role="+role.name, func(b *testing.B) {
			url := role.base + "/v1/matrix?schema1=sc1&schema2=sc2"
			client := &http.Client{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		})
	}
}
