// Command sit-vet is the repo's static-analysis vettool: it runs the
// internal/analysis suite — lockguard, errtype, journalorder, metriclabel,
// lockio, admission, directive, hotalloc, lockorder — in two modes:
//
//	go build -o bin/sit-vet ./cmd/sit-vet
//	go vet -vettool=bin/sit-vet ./...   # unit mode: go vet drives it
//	bin/sit-vet -mod ./...              # module mode: test files included
//
// or simply `make vet`, which runs both. Unit mode rides go vet's build
// cache but never sees _test.go files (go vet does not hand test variants
// to a vettool); module mode loads the whole package graph itself —
// including test variants — propagates cross-package facts in process,
// and keeps its own result cache (-cache).
//
// Each diagnostic is an invariant violation, not a style nit; there is no
// suppression syntax. Fix the code or, if the code is right and the
// contract is wrong, fix the annotation it checks.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/admission"
	"repro/internal/analysis/directive"
	"repro/internal/analysis/errtype"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/journalorder"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/lockio"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/metriclabel"
	"repro/internal/analysis/modrun"
	"repro/internal/analysis/unit"
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
		"repro/internal/assertion.Set.AssertAndClose",
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

// admissionCfg wires the admission-chain invariant: every route the server
// registers must be wrapped in exactly one admitter at the registration
// site, and nothing may register on the raw mux outside the //sit:admission
// plumbing (Server.handle).
var admissionCfg = admission.Config{
	Packages: []string{"repro/internal/server"},
	Registrars: []string{
		"repro/internal/server.Server.handle",
		"repro/internal/server.Server.handleWS",
	},
	Admitters: []string{
		"repro/internal/server.Server.admitOpen",
		"repro/internal/server.Server.admitPeer",
		"repro/internal/server.Server.admitAdmin",
		"repro/internal/server.Server.admitRead",
		"repro/internal/server.Server.admitMutate",
	},
	RawRegistrars: []string{
		"net/http.ServeMux.Handle",
		"net/http.ServeMux.HandleFunc",
		"net/http.Handle",
		"net/http.HandleFunc",
	},
}

// analyzers is the full suite, in both drivers.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockguard.Analyzer,
		errtype.Analyzer,
		journalorder.New(journalCfg),
		metriclabel.Analyzer,
		lockio.Analyzer,
		admission.New(admissionCfg),
		directive.New(),
		hotalloc.New(),
		lockorder.New(),
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-mod" {
		os.Exit(runModule(os.Args[2:]))
	}
	unit.Main(analyzers()...)
}

// runModule is the standalone whole-module mode: analyze every package
// matched by the patterns, test variants included.
func runModule(args []string) int {
	fs := flag.NewFlagSet("sit-vet -mod", flag.ExitOnError)
	cache := fs.String("cache", "", "cross-run result cache file (stale caches are discarded, never reused)")
	noTests := fs.Bool("notests", false, "skip test variants")
	fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := modrun.Run(os.Stderr, analyzers(), modrun.Options{
		Patterns:  patterns,
		CachePath: *cache,
		ToolID:    unit.ToolID(),
		NoTests:   *noTests,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sit-vet:", err)
		return 1
	}
	if n > 0 {
		return 2
	}
	return 0
}
