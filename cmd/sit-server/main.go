// Command sit-server serves the schema integration pipeline over
// HTTP/JSON: upload component schemas (ECR DDL or JSON), declare attribute
// equivalences, fetch resemblance-ranked pairs and dictionary suggestions,
// state assertions (with immediate closure and conflict reporting), and run
// integrations — synchronously or through an async job queue backed by a
// bounded worker pool. See docs/MANUAL.md, "The server API", for the
// endpoint reference.
//
// The server is multi-tenant: named workspaces, created over the API
// (POST /v1/workspaces), each carry their own schemas, assertions, job
// queue and — under -data-dir — their own journal, and never share a lock.
// The unprefixed /v1/... routes address the built-in "default" workspace,
// so single-tenant clients need no changes.
//
// Usage:
//
//	sit-server [-addr :8080] [-schemas file.ecr] [-workspace file.json]
//	           [-workers 4] [-queue 64] [-max-workspaces 64]
//	           [-request-timeout 30s] [-job-timeout 5m] [-quiet]
//	           [-data-dir dir] [-fsync always|interval|never]
//	           [-fsync-interval 100ms] [-snapshot-every 256]
//	           [-follow http://leader:8080] [-poll-interval 100ms]
//	           [-follow-key token] [-keys file]
//	           [-max-schemas 0] [-max-jobs 0] [-max-journal-bytes 0]
//	           [-max-body-bytes 4194304] [-ws-rate 0] [-ws-burst 0]
//	           [-key-rate 0] [-key-burst 0] [-pprof addr]
//
// With -data-dir the server is durable: every mutating operation (schema
// upload, equivalence, assertion, job lifecycle) is written ahead to an
// append-only journal, one per workspace under <data-dir>/<name>/,
// periodically compacted into a snapshot. On startup every workspace's
// state and job table are rebuilt from snapshot + journal tail; jobs that
// were queued at crash time run again, jobs that were running come back in
// the retryable "interrupted" state. A data directory written by the older
// single-tenant layout is migrated into the default workspace's
// subdirectory automatically. See docs/MANUAL.md, "Durability and
// recovery".
//
// With -follow the server starts as a read-only follower of the given
// leader: it bootstraps each workspace from a leader snapshot, tails the
// leader's journals record by record (converging on byte-identical journal
// files), serves every read endpoint from the replicated state, and refuses
// mutations with 421 plus a Location header pointing at the leader. POST
// /v1/promote turns a follower into a leader. -follow requires -data-dir:
// the replicated stream IS a write-ahead journal. See docs/MANUAL.md,
// "Replication and read scale-out".
//
// Admission control is opt-in and off by default. -keys installs API-key
// authentication from a keys file (one `<token> admin` or
// `<token> data <ws1,ws2|*>` line per key; SIGHUP reloads it without a
// restart), the -max-* flags arm per-workspace quotas, and -ws-rate /
// -key-rate arm token-bucket rate limiting per workspace and per key.
// Rejections answer 429 (quota, rate) or 413 (body cap), always with an
// honest Retry-After. See docs/MANUAL.md, "Admission control and quotas".
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener drains
// in-flight requests and the job queue finishes in-flight jobs within the
// shutdown grace period.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sit-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	schemas := flag.String("schemas", "", "preload component schemas from an ECR DDL file")
	workspace := flag.String("workspace", "", "preload a saved workspace JSON file (schemas, equivalences, assertions)")
	workers := flag.Int("workers", 4, "job queue worker pool size")
	queueCap := flag.Int("queue", 64, "per-workspace job queue capacity (submissions beyond it get 503)")
	maxWorkspaces := flag.Int("max-workspaces", 64, "maximum live workspaces, counting the default one (workspaces on disk always recover)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request timeout")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job execution timeout")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown drain period")
	dataDir := flag.String("data-dir", "", "data directory for the write-ahead journal; empty runs in memory only")
	fsyncPolicy := flag.String("fsync", "always", "journal fsync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "fsync spacing under -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 256, "compact the journal into a snapshot after this many records")
	follow := flag.String("follow", "", "run as a read-only follower replicating this leader URL (requires -data-dir)")
	pollInterval := flag.Duration("poll-interval", 100*time.Millisecond, "follower back-off after a failed sync round or a leader that reports no change version (with -follow); a healthy follower waits on the leader, not on this interval")
	followKey := flag.String("follow-key", "", "API key the follower presents to the leader (with -follow, when the leader runs -keys)")
	keysFile := flag.String("keys", "", "API keys file; installs key authentication on every route (SIGHUP reloads it)")
	maxSchemas := flag.Int("max-schemas", 0, "per-workspace schema quota; 0 is unlimited")
	maxJobs := flag.Int("max-jobs", 0, "per-workspace queued-plus-running job quota (429; distinct from -queue's 503); 0 is unlimited")
	maxJournalBytes := flag.Int64("max-journal-bytes", 0, "per-workspace journal length quota in bytes; 0 is unlimited")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "mutation request body cap in bytes (413 beyond it); 0 keeps the 4 MiB default")
	wsRate := flag.Float64("ws-rate", 0, "per-workspace steady request rate in requests/second; 0 disables workspace rate limiting")
	wsBurst := flag.Int("ws-burst", 0, "per-workspace token-bucket burst; 0 derives max(1, 2*ws-rate)")
	keyRate := flag.Float64("key-rate", 0, "per-API-key steady request rate in requests/second (with -keys); 0 disables per-key rate limiting")
	keyBurst := flag.Int("key-burst", 0, "per-API-key token-bucket burst; 0 derives max(1, 2*key-rate)")
	quiet := flag.Bool("quiet", false, "suppress request logging")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate debug address (for example localhost:6060); empty disables it")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("sit-server"))
		return nil
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	cfg := server.Config{
		Workers:        *workers,
		QueueCapacity:  *queueCap,
		MaxWorkspaces:  *maxWorkspaces,
		RequestTimeout: *reqTimeout,
		JobTimeout:     *jobTimeout,
		ShutdownGrace:  *grace,
		Logger:         logger,
		Limits: server.Limits{
			MaxSchemas:      *maxSchemas,
			MaxJobs:         *maxJobs,
			MaxJournalBytes: *maxJournalBytes,
			MaxBodyBytes:    *maxBodyBytes,
			WorkspaceRate:   *wsRate,
			WorkspaceBurst:  *wsBurst,
			KeyRate:         *keyRate,
			KeyBurst:        *keyBurst,
		},
	}

	if *follow != "" {
		if *dataDir == "" {
			return fmt.Errorf("-follow requires -data-dir (the replicated stream is a write-ahead journal)")
		}
		if *schemas != "" || *workspace != "" {
			return fmt.Errorf("-follow cannot be combined with -schemas or -workspace (a follower's state comes from the leader)")
		}
		cfg.Follow = &server.FollowerConfig{Leader: *follow, PollInterval: *pollInterval, APIKey: *followKey}
	}

	var srv *server.Server
	if *dataDir != "" {
		// The data directory is the workspace; a -workspace preload would
		// bypass the journal and silently vanish on the next restart.
		if *workspace != "" {
			return fmt.Errorf("-workspace cannot be combined with -data-dir (the data directory already persists the workspace)")
		}
		policy, err := journal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		var report *server.RecoveryReport
		srv, report, err = server.Open(cfg, server.DurabilityConfig{
			Dir:           *dataDir,
			Sync:          policy,
			SyncInterval:  *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			return err
		}
		if logger != nil {
			logger.Info("recovered",
				"dataDir", *dataDir,
				"workspaces", report.RecoveredWorkspaces,
				"migratedLegacyLayout", report.MigratedLegacyLayout,
				"snapshotSeq", report.SnapshotSeq,
				"replayedRecords", report.ReplayedRecords,
				"droppedBytes", report.DroppedBytes,
				"schemas", report.Schemas,
				"recoveredJobs", report.RecoveredJobs,
				"requeuedJobs", report.RequeuedJobs,
				"interruptedJobs", report.InterruptedJobs,
			)
		}
		// -schemas seeds an empty data directory only: a recovered
		// workspace is authoritative, and re-adding its schemas would fail.
		if report.RecoveredWorkspaces > 0 && *schemas != "" {
			if logger != nil {
				logger.Warn("ignoring -schemas preload: data directory already holds a workspace")
			}
			*schemas = ""
		}
	} else {
		store := server.NewStore()
		if *workspace != "" {
			ws, err := session.Load(*workspace)
			if err != nil {
				return err
			}
			store = server.NewStoreFrom(ws)
		}
		cfg.Store = store
		srv = server.New(cfg)
	}

	if *schemas != "" {
		// Goes through the store, so on a durable server the preload is
		// journaled like any other upload.
		data, err := os.ReadFile(*schemas)
		if err != nil {
			return err
		}
		if _, err := srv.Store().AddSchemasDDL(string(data)); err != nil {
			return err
		}
	}

	if *keysFile != "" {
		if err := srv.SetKeysFile(*keysFile); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *keysFile != "" {
		// SIGHUP re-reads the keys file in place: rotate keys by rewriting
		// the file and signalling, no restart. A broken file is rejected
		// whole and the previous key set stays live.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := srv.ReloadKeys(); err != nil {
					if logger != nil {
						logger.Error("keys reload", "error", err)
					}
				} else if logger != nil {
					logger.Info("keys reloaded", "path", *keysFile)
				}
			}
		}()
	}

	if *pprofAddr != "" {
		stopPprof, err := servePprof(*pprofAddr, logger)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	return srv.Run(ctx, *addr)
}

// servePprof starts the debug profiling listener on its own mux and
// address, so the profiling endpoints never ride on the API listener. The
// returned function stops it.
func servePprof(addr string, logger *slog.Logger) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			if logger != nil {
				logger.Error("pprof serve", "error", err)
			}
		}
	}()
	if logger != nil {
		logger.Info("pprof listening", "addr", ln.Addr().String())
	}
	return func() { srv.Close() }, nil
}
