// ooc-serve runs the multi-tenant compile-and-run service: POST a job
// to /jobs and get back the execution statistics the CLI would have
// printed, bitwise identical to a direct run.
//
// Usage:
//
//	ooc-serve -addr :8080 -workers 4 -mem-budget-mb 1024
//	curl -s localhost:8080/jobs -d '{"n":64,"procs":4}'
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, new
// submissions are rejected, in-flight and queued jobs finish (up to
// -drain-timeout), then the process exits.
//
// Every accepted job is recorded in a write-ahead journal before it
// runs, and retried submissions carrying the same idempotency_key
// deduplicate against retained outcomes. The journal lives in memory
// unless -journal DIR puts it on disk. After a crash (kill -9, power
// loss), restarting with the same -journal replays the journal: queued
// jobs are re-admitted and checkpointed in-flight jobs resume from their
// last durable checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 4, "concurrent job executions")
		queueLimit   = flag.Int("queue", 1024, "maximum queued jobs")
		cacheEntries = flag.Int("cache", 128, "compiled-plan LRU capacity")
		budgetMB     = flag.Int64("mem-budget-mb", 1024, "host-memory budget for inflight jobs, in MiB")
		timeout      = flag.Duration("timeout", time.Minute, "default per-job execution deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM")
		journalDir   = flag.String("journal", "", "write-ahead journal directory (empty keeps the journal in memory: no durability across restarts)")
		logFormat    = flag.String("log", "text", "structured job-log format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.VersionLine("ooc-serve"))
		return
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	cfg := serve.Config{
		Workers:        *workers,
		QueueLimit:     *queueLimit,
		CacheEntries:   *cacheEntries,
		MemoryBudget:   *budgetMB << 20,
		DefaultTimeout: *timeout,
		Logger:         logger,
		Pprof:          *pprofOn,
	}
	if *journalDir != "" {
		jfs, err := iosim.NewOSFS(*journalDir)
		if err != nil {
			fatal(err)
		}
		cfg.Journal = &serve.JournalConfig{FS: jfs}
	}
	s, err := serve.Open(cfg)
	if err != nil {
		fatal(err)
	}
	if *journalDir != "" {
		j := s.MetricsSnapshot().Journal
		logger.Info("journal recovered",
			"dir", *journalDir, "replayed", j.ReplayedJobs,
			"resumed", j.ResumedJobs, "truncated_tails", j.TruncatedTails)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("ooc-serve: listening on %s (%d workers, %d MiB budget)\n", *addr, *workers, *budgetMB)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("ooc-serve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	m := s.MetricsSnapshot()
	fmt.Printf("ooc-serve: drained; %d completed, %d failed, %d cancelled, cache hit ratio %.3f\n",
		m.Completed, m.Failed, m.Cancelled, m.Cache.HitRatio)
	if drainErr != nil {
		fatal(fmt.Errorf("drain: %w", drainErr))
	}
}

// buildLogger assembles the structured job logger from the -log and
// -log-level flags. Logs go to stderr so the startup/drain lines on
// stdout stay machine-greppable on their own.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log %q: want text or json", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooc-serve:", err)
	os.Exit(1)
}
