// Similarity-engine benchmarks: the dense reference path against the
// sparse engine at three workload sizes, the count-matrix construction,
// the server's memoized read path, and the in-process cost of the two
// HTTP reads the design loop repeats (GET /resemblance and GET /matrix),
// cached and, for the ranking, right after a declaration.
// BENCH_similarity.json records the numbers; `make bench-similarity`
// rewrites it from a real sweep.
//
// Run with: go test -run='^$' -bench 'RankObjects|ObjectMatrix|StoreCached|ResemblanceMiss' -benchmem
package repro_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"

	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/resemblance"
	"repro/internal/server"
	"repro/internal/similarity"
	"repro/internal/workload"
)

var similarityBenchReport = flag.Bool("similarity-bench-report", false,
	"rewrite BENCH_similarity.json from a timed sweep")

// benchSizes are the object counts of the scalability sweep; 800 is the
// headline size of the optimization (640,000 pairs per ranking).
var benchSizes = []int{50, 200, 800}

func BenchmarkRankObjects(b *testing.B) {
	for _, n := range benchSizes {
		w := genWorkload(b, n)
		b.Run(fmt.Sprintf("dense/objects=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pairs := resemblance.RankObjects(w.S1, w.S2, w.Registry)
				if len(pairs) != n*n {
					b.Fatal("pair count wrong")
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/objects=%d", n), func(b *testing.B) {
			e := similarity.Attach(w.Registry)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs := e.RankObjects(w.S1, w.S2)
				if len(pairs) != n*n {
					b.Fatal("pair count wrong")
				}
			}
		})
	}
}

func BenchmarkObjectMatrix(b *testing.B) {
	for _, n := range benchSizes {
		w := genWorkload(b, n)
		b.Run(fmt.Sprintf("dense/objects=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := equivalence.ObjectMatrix(w.S1, w.S2, w.Registry)
				if len(m.Rows) != n {
					b.Fatal("matrix shape wrong")
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/objects=%d", n), func(b *testing.B) {
			e := similarity.Attach(w.Registry)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := e.ObjectMatrix(w.S1, w.S2)
				if len(m.Rows) != n {
					b.Fatal("matrix shape wrong")
				}
			}
		})
	}
}

// BenchmarkStoreCachedRankedPairs measures the server's memoized read
// path: after the first request the ranking is served from the versioned
// cache, which should cost two map lookups and allocate nothing.
func BenchmarkStoreCachedRankedPairs(b *testing.B) {
	benchStoreCachedRankedPairs(b, declaredStore(b, genWorkload(b, 200)), 200)
}

func benchStoreCachedRankedPairs(b *testing.B, st *server.Store, n int) {
	if _, err := st.RankedPairs("w1", "w2", false); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.RankedPairs("w1", "w2", false)
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != n*n {
			b.Fatal("pair count wrong")
		}
	}
	b.StopTimer()
	if hits, _ := st.SimilarityCacheStats(); hits == 0 {
		b.Fatal("cache never hit")
	}
}

// BenchmarkResemblanceMiss times GET /v1/resemblance right after a
// declaration, as the design loop reads it: every read misses the
// similarity cache.
func BenchmarkResemblanceMiss(b *testing.B) {
	for _, n := range []int{40, 200} {
		w := genWorkload(b, n)
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) { benchResemblanceMiss(b, w) })
	}
}

// benchResemblanceMiss declares the workload's equivalences one per
// iteration, untimed, and times the ranking read that follows each
// through the server's handler. When the declarations run out it starts
// over on a fresh server, so the rankings go from sparse to as full as the
// workload makes them, again and again.
func benchResemblanceMiss(b *testing.B, w *workload.Workload) {
	eqs := trueEquivalences(w)
	path := "/v1/resemblance?" + url.Values{"schema1": {"w1"}, "schema2": {"w2"}}.Encode()
	var (
		srv  *server.Server
		st   *server.Store
		next = len(eqs)
		body int
	)
	restart := func() {
		if srv != nil {
			if hits, _ := st.SimilarityCacheStats(); hits != 0 {
				b.Fatalf("%d ranking reads hit the cache", hits)
			}
			_ = srv.Shutdown(context.Background())
		}
		st = server.NewStore()
		if _, err := st.AddSchemas([]*ecr.Schema{w.S1, w.S2}); err != nil {
			b.Fatal(err)
		}
		srv = server.New(server.Config{Store: st})
		next = 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if next == len(eqs) {
			restart()
		}
		e := eqs[next]
		next++
		if err := st.DeclareEquivalence(e[0], e[1], e[2], e[3]); err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", path, nil)
		b.StartTimer()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		body = rec.Body.Len()
	}
	b.StopTimer()
	_ = srv.Shutdown(context.Background())
	b.ReportMetric(float64(body), "body_bytes")
}

// trueEquivalences lists the workload's equivalences as
// (schema1, ref1, schema2, ref2) declarations, one per class member after
// the first, skipping pairs within one structure.
func trueEquivalences(w *workload.Workload) [][4]string {
	var out [][4]string
	for _, class := range w.Registry.Classes() {
		for i := 1; i < len(class); i++ {
			a, z := class[0], class[i]
			if a.Schema == z.Schema && a.Object == z.Object {
				continue
			}
			out = append(out, [4]string{a.Schema, a.Object + "." + a.Attr, z.Schema, z.Object + "." + z.Attr})
		}
	}
	return out
}

// declaredStore loads the workload's schemas into a server store and
// declares the workload's equivalences through it, so rankings have
// nonzero content (the workload's own registry is separate).
func declaredStore(tb testing.TB, w *workload.Workload) *server.Store {
	tb.Helper()
	st := server.NewStore()
	if _, err := st.AddSchemas([]*ecr.Schema{w.S1, w.S2}); err != nil {
		tb.Fatal(err)
	}
	for _, e := range trueEquivalences(w) {
		if err := st.DeclareEquivalence(e[0], e[1], e[2], e[3]); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// benchReadRoute times one cached read of route through the server's
// handler into a fresh recorder, the in-process cost of a design-loop
// read without the network. It reports the body size as a metric.
func benchReadRoute(b *testing.B, h http.Handler, route string) {
	path := route + "?" + url.Values{"schema1": {"w1"}, "schema2": {"w2"}}.Encode()
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	body := serve().Body.Len() // warm the similarity cache and buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(body), "body_bytes")
}

// --- BENCH_similarity.json writer ---

type similarityComputeRow struct {
	Objects           int     `json:"objects"`
	Pairs             int     `json:"pairs,omitempty"`
	BeforeNsPerOp     int64   `json:"before_ns_per_op"`
	AfterNsPerOp      int64   `json:"after_ns_per_op"`
	Speedup           float64 `json:"speedup"`
	BeforeAllocsPerOp int64   `json:"before_allocs_per_op"`
	AfterAllocsPerOp  int64   `json:"after_allocs_per_op"`
	BeforeBytesPerOp  int64   `json:"before_bytes_per_op"`
	AfterBytesPerOp   int64   `json:"after_bytes_per_op"`
	BeforeIterations  int     `json:"before_iterations"`
	AfterIterations   int     `json:"after_iterations"`
}

type similarityReadRow struct {
	Route       string `json:"route"`
	Objects     int    `json:"objects"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	BodyBytes   int64  `json:"body_bytes"`
	Iterations  int    `json:"iterations"`
}

type similarityBenchReportDoc struct {
	Description            string                 `json:"description"`
	Command                string                 `json:"command"`
	Environment            map[string]any         `json:"environment"`
	RankObjects            []similarityComputeRow `json:"rank_objects"`
	ObjectMatrix           []similarityComputeRow `json:"object_matrix"`
	StoreCachedRankedPairs similarityReadRow      `json:"store_cached_ranked_pairs"`
	HandlerReads           []similarityReadRow    `json:"handler_reads"`
}

// computeRow runs the dense and sparse variants of one sweep point.
func computeRow(objects, pairs int, dense, sparse func(b *testing.B)) similarityComputeRow {
	d, sp := testing.Benchmark(dense), testing.Benchmark(sparse)
	return similarityComputeRow{
		Objects: objects, Pairs: pairs,
		BeforeNsPerOp: d.NsPerOp(), AfterNsPerOp: sp.NsPerOp(),
		Speedup:           float64(int(float64(d.NsPerOp())/float64(sp.NsPerOp())*10+0.5)) / 10,
		BeforeAllocsPerOp: d.AllocsPerOp(), AfterAllocsPerOp: sp.AllocsPerOp(),
		BeforeBytesPerOp: d.AllocedBytesPerOp(), AfterBytesPerOp: sp.AllocedBytesPerOp(),
		BeforeIterations: d.N, AfterIterations: sp.N,
	}
}

func readRow(route string, objects int, r testing.BenchmarkResult) similarityReadRow {
	return similarityReadRow{
		Route: route, Objects: objects,
		NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		BodyBytes: int64(r.Extra["body_bytes"]), Iterations: r.N,
	}
}

// TestWriteSimilarityBenchReport runs the similarity benchmarks through
// testing.Benchmark and rewrites BENCH_similarity.json. Gated behind
// -similarity-bench-report so ordinary test runs skip it;
// `make bench-similarity` is the front door.
func TestWriteSimilarityBenchReport(t *testing.T) {
	if !*similarityBenchReport {
		t.Skip("run with -similarity-bench-report to rewrite BENCH_similarity.json")
	}
	doc := similarityBenchReportDoc{
		Description: "Dense reference path (internal/resemblance + internal/equivalence, recompute-everything) vs the sparse incremental engine (internal/similarity) on workload.Generate schema pairs; output is byte-identical between the two paths (differential tests in internal/similarity and internal/server). Then the server's cached read path, and GET /v1/resemblance and GET /v1/matrix served in process (server handler into an httptest recorder, no network) with the similarity cache warm, and GET /v1/resemblance right after an equivalence declaration (a cache miss, the design loop's read; the declaration is untimed): ns, allocations and allocated bytes per request (the recorder's copy of the body included), and the response body size.",
		Command:     "make bench-similarity  (go test -run=TestWriteSimilarityBenchReport -similarity-bench-report .)",
		Environment: benchEnvironment(),
	}
	for _, n := range benchSizes {
		w := genWorkload(t, n)
		e := similarity.Attach(w.Registry)
		doc.RankObjects = append(doc.RankObjects, computeRow(n, n*n,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					resemblance.RankObjects(w.S1, w.S2, w.Registry)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.RankObjects(w.S1, w.S2)
				}
			}))
		doc.ObjectMatrix = append(doc.ObjectMatrix, computeRow(n, 0,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					equivalence.ObjectMatrix(w.S1, w.S2, w.Registry)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.ObjectMatrix(w.S1, w.S2)
				}
			}))
		t.Logf("objects=%d rank %+v", n, doc.RankObjects[len(doc.RankObjects)-1])
	}
	st := declaredStore(t, genWorkload(t, 200))
	doc.StoreCachedRankedPairs = readRow("Store.RankedPairs", 200,
		testing.Benchmark(func(b *testing.B) { benchStoreCachedRankedPairs(b, st, 200) }))
	for _, n := range []int{40, 200} {
		w := genWorkload(t, n)
		srv := server.New(server.Config{Store: declaredStore(t, w)})
		t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
		for _, route := range []string{"/v1/resemblance", "/v1/matrix"} {
			row := readRow("GET "+route, n,
				testing.Benchmark(func(b *testing.B) { benchReadRoute(b, srv.Handler(), route) }))
			t.Logf("%+v", row)
			doc.HandlerReads = append(doc.HandlerReads, row)
		}
		row := readRow("GET /v1/resemblance after a declare", n,
			testing.Benchmark(func(b *testing.B) { benchResemblanceMiss(b, w) }))
		t.Logf("%+v", row)
		doc.HandlerReads = append(doc.HandlerReads, row)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_similarity.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
