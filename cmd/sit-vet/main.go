// Command sit-vet is the repo's static-analysis tool: it runs the
// internal/analysis suite — lockguard, errtype, journalorder, metriclabel,
// lockio, directive, lockorder — over every package the patterns match,
// _test.go files included:
//
//	go build -o bin/sit-vet ./cmd/sit-vet
//	bin/sit-vet [-cache file] [patterns]   # patterns default to ./...
//
// or simply `make sit-vet`. The driver (internal/analysis/modrun) loads
// the package graph through `go list`, propagates cross-package facts in
// process and keeps a cross-run result cache in the -cache file. It exits
// 0 when the tree is clean, 2 when there are findings and 1 when the run
// fails, including when a package does not compile.
//
// Each diagnostic is an invariant violation, not a style nit; there is no
// suppression syntax. Fix the code or, if the code is right and the
// contract is wrong, fix the annotation it checks.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/directive"
	"repro/internal/analysis/errtype"
	"repro/internal/analysis/journalorder"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/lockio"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/metriclabel"
	"repro/internal/analysis/modrun"
)

// journalCfg names this repo's durable mutations and its write-ahead
// helper. The session/equivalence/assertion calls change state the server
// promises to survive a crash; Store.journal is the one sanctioned door to
// the workspace journal in front of them.
var journalCfg = journalorder.Config{
	// The write-ahead contract holds in the durable layer only; the
	// in-memory session/equivalence/assertion packages and the ephemeral
	// CLI call these mutators freely. internal/replication is in scope:
	// the follower sync path hands every leader record to the journal
	// before any in-memory apply, so a direct mutator call there would be
	// a contract break, not a convenience.
	Packages: []string{
		"repro/internal/server",
		"repro/internal/server_test",
		"repro/internal/replication",
		"repro/internal/replication_test",
	},
	Mutators: []string{
		"repro/internal/session.Workspace.AddSchema",
		"repro/internal/session.Workspace.RemoveSchema",
		"repro/internal/equivalence.Registry.Declare",
		"repro/internal/assertion.Engine.Assert",
		"repro/internal/assertion.Engine.AssertAndClose",
		"repro/internal/assertion.Engine.Override",
		"repro/internal/assertion.Engine.Retract",
	},
	JournalFns: []string{
		"repro/internal/server.Store.journal",
		// The follower's sanctioned door: a replicated frame is appended
		// to the local journal (verbatim leader bytes) before its
		// operation is applied to the in-memory store.
		"repro/internal/journal.Journal.AppendFrame",
	},
}

// analyzers is the full suite.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockguard.Analyzer,
		errtype.Analyzer,
		journalorder.New(journalCfg),
		metriclabel.Analyzer,
		lockio.Analyzer,
		directive.New(),
		lockorder.New(),
	}
}

func main() {
	cache := flag.String("cache", "", "cross-run result cache file (stale caches are discarded, never reused)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := modrun.Run(os.Stderr, analyzers(), modrun.Options{
		Patterns:  patterns,
		CachePath: *cache,
		ToolID:    toolID(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sit-vet:", err)
		os.Exit(1)
	}
	if n > 0 {
		os.Exit(2)
	}
}

// toolID hashes the sit-vet binary itself, so the result cache is
// discarded whenever the tool (an analyzer, its config or the driver)
// changes.
func toolID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
