# Schema Integration Tool — build and verification targets.
#
# VERSION is stamped into every binary via internal/version; override it
# on the command line: make build VERSION=1.2.3

VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -X repro/internal/version.Version=$(VERSION)
BINDIR   = bin

.PHONY: all build check vet sit-vet test race bench bench-similarity bench-assertions bench-translate clean

all: check

# Full verification: everything compiles, vet (standard and project
# analyzers) is clean, tests pass under the race detector.
check:
	go build ./...
	go vet ./...
	$(MAKE) sit-vet
	go test -race ./...

build:
	go build -ldflags '$(LDFLAGS)' -o $(BINDIR)/ ./cmd/...

vet:
	go vet ./...
	$(MAKE) sit-vet

# sit-vet runs the project-specific analyzers (lock discipline, error
# classification, journal ordering, metric cardinality, I/O under locks,
# lock-order deadlock detection, directive hygiene) over every package,
# _test.go files included, keeping a cross-run result cache. A package
# that does not compile fails it. Route admission and hot-path
# allocations are checked by tests (TestRouteTable, Test*Allocs).
sit-vet:
	go build -o $(BINDIR)/sit-vet ./cmd/sit-vet
	$(BINDIR)/sit-vet -cache $(BINDIR)/sit-vet.factcache ./...

test:
	go test ./...

race:
	go test -race ./...

# bench regenerates the benchmark reports that have writers.
# BENCH_replication.json is still transcribed by hand from go test -bench.
bench: bench-similarity bench-assertions bench-translate

# bench-similarity times the dense and sparse ranking and matrix paths at
# 50..800 objects, the cached store read, and GET /v1/resemblance and
# GET /v1/matrix served in process at 40 and 200 objects, and rewrites
# BENCH_similarity.json.
bench-similarity:
	go test -run=TestWriteSimilarityBenchReport -similarity-bench-report -timeout 30m .

# bench-assertions sweeps the incremental closure engine against the dense
# re-closure at 10^3..10^6 assertions and rewrites BENCH_assertions.json.
bench-assertions:
	go test -run=TestWriteAssertionBenchReport -assertion-bench-report .

# bench-translate sweeps whole-source parse throughput per schema frontend
# at 10^2..10^4 entity sets and rewrites BENCH_translate.json.
bench-translate:
	go test -run=TestWriteTranslateBenchReport -translate-bench-report .

clean:
	rm -rf $(BINDIR)
