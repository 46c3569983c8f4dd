// Assertion-closure benchmarks: the incremental engine against the dense
// recompute-everything path on bounded-component workload streams, swept
// from 10^3 to 10^6 held assertions. BENCH_assertions.json records the
// numbers; `make bench-assertions` rewrites it from a real sweep.
//
// Run with: go test -run='^$' -bench=BenchmarkAssertionClosure -benchtime=1x .
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/assertion"
	"repro/internal/workload"
)

var (
	assertionBenchMax = flag.Int("assertion-bench-max", 1_000_000,
		"largest matrix size of the assertion-closure sweep")
	assertionBenchReport = flag.Bool("assertion-bench-report", false,
		"rewrite BENCH_assertions.json from a timed sweep")
)

// assertionSizes is the sweep: held specified assertions per matrix.
var assertionSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// assertionFixture is a matrix pre-loaded with size specified assertions
// plus a reserve of fresh assert ops to feed the timed loop.
type assertionFixture struct {
	engine  *assertion.Engine
	reserve []workload.AssertionOp
}

// buildAssertionFixture generates size+reserve assert-only ops in bounded
// components and applies the first size of them.
func buildAssertionFixture(tb testing.TB, size, reserve int) *assertionFixture {
	tb.Helper()
	cfg := workload.DefaultAssertionConfig(int64(size), size+reserve)
	cfg.RetractFraction = 0 // the timed loop does its own mutations
	ops, err := workload.GenerateAssertions(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e := assertion.NewEngine()
	if err := workload.ApplyAssertions(e, ops[:size]); err != nil {
		tb.Fatal(err)
	}
	return &assertionFixture{engine: e, reserve: ops[size:]}
}

// denseFromEngine copies the engine's specified entries into a plain Set,
// the input the dense path re-closes from scratch.
func denseFromEngine(tb testing.TB, e *assertion.Engine) *assertion.Set {
	tb.Helper()
	s := assertion.NewSet()
	for _, ent := range e.Entries() {
		if ent.Derived {
			continue
		}
		if err := s.Assert(ent.A, ent.B, ent.Kind); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkAssertionClosureIncremental times one Assert against a held
// matrix through the incremental engine. Fresh reserve edges feed the
// loop; once the reserve is exhausted the loop retracts and re-asserts
// reserve edges round-robin (two incremental ops per iteration, so the
// reported number only overstates the incremental cost).
func BenchmarkAssertionClosureIncremental(b *testing.B) {
	for _, size := range assertionSizes {
		if size > *assertionBenchMax {
			continue
		}
		b.Run(fmt.Sprintf("asserts=%d", size), func(b *testing.B) {
			fix := buildAssertionFixture(b, size, 20_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := fix.reserve[i%len(fix.reserve)]
				if i >= len(fix.reserve) {
					if _, err := fix.engine.Retract(op.A, op.B); err != nil {
						b.Fatal(err)
					}
				}
				if err := fix.engine.Assert(op.A, op.B, op.Kind); err != nil {
					b.Fatal(err)
				}
			}
			if !fix.engine.Consistent() {
				b.Fatal("matrix conflicted")
			}
		})
	}
}

// BenchmarkAssertionClosureDense times the same single assert through the
// pre-engine path: record the statement, then recompute the whole closure
// densely (DropDerived + Close), as Set.Override/Retract forced before the
// incremental engine existed.
func BenchmarkAssertionClosureDense(b *testing.B) {
	for _, size := range assertionSizes {
		if size > *assertionBenchMax {
			continue
		}
		b.Run(fmt.Sprintf("asserts=%d", size), func(b *testing.B) {
			fix := buildAssertionFixture(b, size, 20_000)
			dense := denseFromEngine(b, fix.engine)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := fix.reserve[i%len(fix.reserve)]
				if i < len(fix.reserve) {
					if err := dense.Assert(op.A, op.B, op.Kind); err != nil {
						b.Fatal(err)
					}
				}
				dense.DropDerived()
				if res := dense.Close(); !res.Consistent() {
					b.Fatal("matrix conflicted")
				}
			}
		})
	}
}

// --- BENCH_assertions.json writer ---

type assertionBenchRow struct {
	Asserts            int     `json:"asserts"`
	MatrixEntries      int     `json:"matrix_entries"`
	IncrementalNsPerOp float64 `json:"incremental_ns_per_op"`
	DenseNsPerOp       float64 `json:"dense_ns_per_op"`
	Speedup            float64 `json:"speedup"`
	IncrementalSamples int     `json:"incremental_samples"`
	DenseSamples       int     `json:"dense_samples"`
}

type assertionBenchReportDoc struct {
	Description  string              `json:"description"`
	Command      string              `json:"command"`
	Environment  map[string]any      `json:"environment"`
	SingleAssert []assertionBenchRow `json:"single_assert"`
}

// TestWriteAssertionBenchReport runs the sweep with wall-clock timing and
// rewrites BENCH_assertions.json. Gated behind -assertion-bench-report so
// ordinary test runs skip it; `make bench-assertions` is the front door.
func TestWriteAssertionBenchReport(t *testing.T) {
	if !*assertionBenchReport {
		t.Skip("run with -assertion-bench-report to rewrite BENCH_assertions.json")
	}
	doc := assertionBenchReportDoc{
		Description: "Single-assert latency against a held assertion matrix: the incremental engine (internal/assertion.Engine, semi-naive delta propagation with support counting) vs the dense pre-engine path (record, DropDerived, full Close). Matrices are workload.GenerateAssertions streams in bounded components; both paths produce byte-identical closures (differential tests and FuzzClosure in internal/assertion enforce this).",
		Command:     "make bench-assertions  (go test -run=TestWriteAssertionBenchReport -assertion-bench-report .)",
		Environment: benchEnvironment(),
	}
	for _, size := range assertionSizes {
		if size > *assertionBenchMax {
			continue
		}
		row := assertionBenchRow{Asserts: size}
		fix := buildAssertionFixture(t, size, 20_000)
		row.MatrixEntries = fix.engine.Len()

		// Incremental: average over enough fresh asserts to dominate
		// timer noise.
		incrOps := 2000
		start := time.Now()
		for i := 0; i < incrOps; i++ {
			op := fix.reserve[i]
			if err := fix.engine.Assert(op.A, op.B, op.Kind); err != nil {
				t.Fatal(err)
			}
		}
		row.IncrementalNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(incrOps)
		row.IncrementalSamples = incrOps

		// Dense: one assert plus a full re-closure; a handful of samples,
		// fewer as the matrix grows.
		denseOps := 5
		if size >= 100_000 {
			denseOps = 2
		}
		if size >= 1_000_000 {
			denseOps = 1
		}
		dense := denseFromEngine(t, fix.engine)
		start = time.Now()
		for i := 0; i < denseOps; i++ {
			op := fix.reserve[incrOps+i]
			if err := dense.Assert(op.A, op.B, op.Kind); err != nil {
				t.Fatal(err)
			}
			dense.DropDerived()
			if res := dense.Close(); !res.Consistent() {
				t.Fatal("matrix conflicted")
			}
		}
		row.DenseNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(denseOps)
		row.DenseSamples = denseOps
		row.Speedup = row.DenseNsPerOp / row.IncrementalNsPerOp
		t.Logf("asserts=%d entries=%d incremental=%.0fns dense=%.0fns speedup=%.0fx",
			size, row.MatrixEntries, row.IncrementalNsPerOp, row.DenseNsPerOp, row.Speedup)
		doc.SingleAssert = append(doc.SingleAssert, row)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_assertions.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
