// Frontend-parse benchmarks: the four forms-emitting frontends over one
// conceptual schema rendered in each language, swept from 10^2 to 10^4
// entity sets. BENCH_translate.json records the numbers;
// `make bench-translate` rewrites it from a real sweep.
//
// Run with: go test -run='^$' -bench=BenchmarkTranslateParse -benchtime=1x .
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/translate"
	"repro/internal/workload"
)

var (
	translateBenchMax = flag.Int("translate-bench-max", 10_000,
		"largest object count of the frontend-parse sweep")
	translateBenchReport = flag.Bool("translate-bench-report", false,
		"rewrite BENCH_translate.json from a timed sweep")
)

// translateSizes is the sweep: entity sets per generated schema.
var translateSizes = []int{100, 1_000, 10_000}

// translateForms renders one generated conceptual schema of size entity
// sets in every forms language, keyed by frontend format name.
func translateForms(tb testing.TB, size int) map[string][]byte {
	tb.Helper()
	cfg := workload.FormsConfig{
		Seed:           int64(size),
		Objects:        size,
		AttrsPerObject: 4,
		Refs:           size,
	}
	f, err := workload.GenerateForms(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"dictionary": []byte(f.Dictionary),
		"sql":        []byte(f.SQL),
		"jsonschema": []byte(f.JSONSchema),
		"avro":       []byte(f.Avro),
	}
}

// translateFormats fixes the sweep order of the benchmarked frontends.
var translateFormats = []string{"dictionary", "sql", "jsonschema", "avro"}

// BenchmarkTranslateParse times one registry Parse of a whole source per
// frontend and size; b.SetBytes reports throughput over the source text.
func BenchmarkTranslateParse(b *testing.B) {
	for _, size := range translateSizes {
		if size > *translateBenchMax {
			continue
		}
		forms := translateForms(b, size)
		for _, format := range translateFormats {
			src := forms[format]
			b.Run(fmt.Sprintf("format=%s/objects=%d", format, size), func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, used, err := translate.Parse(format, "bench", src)
					if err != nil {
						b.Fatal(err)
					}
					if used != format || len(res.Schemas) != 1 {
						b.Fatalf("parsed as %s into %d schemas", used, len(res.Schemas))
					}
				}
			})
		}
	}
}

// --- BENCH_translate.json writer ---

type translateBenchRow struct {
	Format      string  `json:"format"`
	Objects     int     `json:"objects"`
	SourceBytes int     `json:"source_bytes"`
	NsPerParse  float64 `json:"ns_per_parse"`
	MBPerSec    float64 `json:"mb_per_s"`
	ObjectsPerS float64 `json:"objects_per_s"`
	Samples     int     `json:"samples"`
}

type translateBenchReportDoc struct {
	Description string              `json:"description"`
	Command     string              `json:"command"`
	Environment map[string]any      `json:"environment"`
	Parse       []translateBenchRow `json:"parse"`
}

// TestWriteTranslateBenchReport runs the sweep with wall-clock timing and
// rewrites BENCH_translate.json. Gated behind -translate-bench-report so
// ordinary test runs skip it; `make bench-translate` is the front door.
func TestWriteTranslateBenchReport(t *testing.T) {
	if !*translateBenchReport {
		t.Skip("run with -translate-bench-report to rewrite BENCH_translate.json")
	}
	doc := translateBenchReportDoc{
		Description: "Whole-source parse latency and throughput per schema frontend (internal/translate registry), over one conceptual schema rendered equivalently in each language by workload.GenerateForms. Sizes are entity-set counts; every rendering abstracts to the same ECR schema (the forms equivalence test in internal/translate enforces this).",
		Command:     "make bench-translate  (go test -run=TestWriteTranslateBenchReport -translate-bench-report .)",
		Environment: benchEnvironment(),
	}
	for _, size := range translateSizes {
		if size > *translateBenchMax {
			continue
		}
		forms := translateForms(t, size)
		for _, format := range translateFormats {
			src := forms[format]
			// Enough samples to dominate timer noise, fewer as the
			// sources grow.
			samples := 50
			if size >= 1_000 {
				samples = 10
			}
			if size >= 10_000 {
				samples = 3
			}
			start := time.Now()
			for i := 0; i < samples; i++ {
				res, used, err := translate.Parse(format, "bench", src)
				if err != nil {
					t.Fatal(err)
				}
				if used != format || len(res.Schemas) != 1 {
					t.Fatalf("parsed as %s into %d schemas", used, len(res.Schemas))
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(samples)
			row := translateBenchRow{
				Format:      format,
				Objects:     size,
				SourceBytes: len(src),
				NsPerParse:  ns,
				MBPerSec:    float64(len(src)) / ns * 1e9 / (1 << 20),
				ObjectsPerS: float64(size) / ns * 1e9,
				Samples:     samples,
			}
			t.Logf("format=%s objects=%d bytes=%d parse=%.0fns %.1fMB/s",
				format, size, len(src), ns, row.MBPerSec)
			doc.Parse = append(doc.Parse, row)
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_translate.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
