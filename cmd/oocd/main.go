// Command oocd is the design-as-a-service daemon: it serves the
// spec → design → validation pipeline over HTTP (internal/server).
//
// Endpoints:
//
//	POST /v1/design             specification in, generated design out
//	POST /v1/validate?model=m
//	                            specification in, validation report out;
//	                            ?error_budget=f instead of ?model=
//	                            auto-selects the cheapest calibrated
//	                            model rung within the budget (the rung
//	                            is echoed in X-OOC-Model-Selected)
//	POST   /v1/jobs             submit an asynchronous design-space
//	                            search job (grid or successive halving)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        poll job progress / final result
//	DELETE /v1/jobs/{id}        cancel a job cooperatively
//	GET  /v1/cache              export the response cache as a
//	                            versioned snapshot (peer fill)
//	PUT  /v1/cache              import a snapshot (409 on version or
//	                            schema mismatch, 400 on corruption)
//	GET  /healthz               liveness
//	GET  /metrics               text metrics exposition
//
// ?model=dynamic selects the transient tier and adds ?duration=,
// ?profile= (constant, ramp:<rise>, pulse:<depth>@<period>) and
// ?dose=; a simulated span that cannot fit the request's deadline
// budget is rejected up front with 400. ?model=numeric is a 400 too:
// the FDM cross-section solve is an offline oracle, run by
// oocsim -model numeric.
//
// -cache-snapshot makes the response cache survive restarts: the
// daemon loads the snapshot file at boot (a missing file starts cold
// quietly; a corrupt or version-mismatched one is rejected with a
// clear error and the daemon still starts cold), persists it every
// -snapshot-interval, and persists once more after the graceful
// drain. Writes are atomic (temp file + rename), so a crash mid-write
// never corrupts the last good snapshot. -peer-fill warms a fresh
// replica from a running peer's GET /v1/cache at boot; failure to
// reach the peer is a warning, not a fatal error.
//
// Every request runs under a deadline budget: the -timeout default,
// overridable per request with ?timeout= up to -max-timeout.
// Concurrency is bounded (-concurrent solves, -queue waiters; overload
// answers 429). Identical requests are deduplicated and cached
// (-cache entries, keyed on the canonical spec bytes).
//
// Search jobs run detached from the submitting request, bounded by
// their own admission (-jobs-running concurrent searches, -jobs-queue
// waiters, overload answers 429) and per-job deadline budget
// (-job-timeout default, capped at -job-max-timeout).
//
// SIGINT/SIGTERM starts a graceful drain: the listener closes,
// running search jobs are cancelled (their partial results stay
// pollable through the drain), in-flight requests get -drain to
// finish, stragglers are cancelled through the context plumbing. The
// final metrics exposition is printed to stderr on exit with -stats.
//
// Usage:
//
//	oocd -addr :8080
//	oocd -addr 127.0.0.1:0 -timeout 5s -stats   # ephemeral port, printed on stdout
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ooc/internal/cachesnap"
	"ooc/internal/modelsel"
	"ooc/internal/server"
)

func main() {
	cfg := struct {
		addr          string
		concurrent    int
		queue         int
		cache         int
		timeout       time.Duration
		maxTimeout    time.Duration
		drain         time.Duration
		stats         bool
		jobsRunning   int
		jobsQueue     int
		jobsHistory   int
		jobTimeout    time.Duration
		jobMaxTimeout time.Duration
		cacheSnapshot string
		snapshotEvery time.Duration
		peerFill      string
	}{}
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	flag.IntVar(&cfg.concurrent, "concurrent", 0, "max concurrent solves (0 = worker-pool width)")
	flag.IntVar(&cfg.queue, "queue", 0, "max queued requests before 429 (0 = 4x concurrent)")
	flag.IntVar(&cfg.cache, "cache", 0, "response cache entries (0 = 256)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "default per-request deadline budget (0 = 15s)")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", 0, "cap on client-requested ?timeout= (0 = 60s)")
	flag.DurationVar(&cfg.drain, "drain", 0, "graceful-drain budget on shutdown (0 = 5s)")
	flag.BoolVar(&cfg.stats, "stats", false, "print the final metrics exposition to stderr on exit")
	flag.IntVar(&cfg.jobsRunning, "jobs-running", 0, "max concurrently running search jobs (0 = 1)")
	flag.IntVar(&cfg.jobsQueue, "jobs-queue", 0, "max queued search jobs before 429 (0 = 8)")
	flag.IntVar(&cfg.jobsHistory, "jobs-history", 0, "finished search jobs retained for polling (0 = 64)")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 0, "default per-job deadline budget (0 = 5m)")
	flag.DurationVar(&cfg.jobMaxTimeout, "job-max-timeout", 0, "cap on client-requested job timeouts (0 = 30m)")
	flag.StringVar(&cfg.cacheSnapshot, "cache-snapshot", "", "cache snapshot file: loaded at boot, persisted periodically and on graceful drain")
	flag.DurationVar(&cfg.snapshotEvery, "snapshot-interval", time.Minute, "how often to persist -cache-snapshot (0 disables periodic persists)")
	flag.StringVar(&cfg.peerFill, "peer-fill", "", "base URL of a running peer to warm the response cache from at boot (GET <url>/v1/cache)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: oocd [flags]")
		os.Exit(2)
	}
	// The embedded calibration artifact backs every ?error_budget=
	// request; a build whose artifact fails validation must not serve —
	// fail loudly at boot, not with per-request 500s.
	if _, err := modelsel.Default(); err != nil {
		fmt.Fprintln(os.Stderr, "oocd:", err)
		os.Exit(2)
	}

	if err := run(cfg.addr, snapshotConfig{
		path:     cfg.cacheSnapshot,
		interval: cfg.snapshotEvery,
		peer:     cfg.peerFill,
	}, server.Config{
		MaxConcurrent:  cfg.concurrent,
		QueueDepth:     cfg.queue,
		CacheSize:      cfg.cache,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		DrainTimeout:   cfg.drain,

		JobsMaxRunning:    cfg.jobsRunning,
		JobsQueueDepth:    cfg.jobsQueue,
		JobsHistory:       cfg.jobsHistory,
		JobDefaultTimeout: cfg.jobTimeout,
		JobMaxTimeout:     cfg.jobMaxTimeout,
	}, cfg.stats); err != nil {
		fmt.Fprintln(os.Stderr, "oocd:", err)
		os.Exit(1)
	}
}

// snapshotConfig carries the warm-start knobs into run.
type snapshotConfig struct {
	path     string        // -cache-snapshot; "" disables persistence
	interval time.Duration // -snapshot-interval; <= 0 disables periodic persists
	peer     string        // -peer-fill base URL; "" disables
}

func run(addr string, snap snapshotConfig, cfg server.Config, stats bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := server.New(cfg)

	// Warm the cache before announcing the listener: a snapshot or
	// peer that fails to load is a warning, never a fatal error — the
	// daemon always starts, cold at worst.
	if snap.path != "" {
		loadSnapshotFile(s, snap.path)
	}
	if snap.peer != "" {
		peerFill(s, snap.peer)
	}

	// The resolved address goes to stdout so scripts using port 0 can
	// discover the ephemeral port; everything else is stderr.
	fmt.Printf("oocd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var persisters sync.WaitGroup
	if snap.path != "" && snap.interval > 0 {
		persisters.Add(1)
		go func() {
			defer persisters.Done()
			t := time.NewTicker(snap.interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := persistSnapshot(s, snap.path); err != nil {
						fmt.Fprintln(os.Stderr, "oocd: cache snapshot persist:", err)
					}
				}
			}
		}()
	}

	err = s.Serve(ctx, ln)
	persisters.Wait()
	if snap.path != "" {
		// One final persist after the drain, so everything cached during
		// this process's lifetime survives the restart.
		if perr := persistSnapshot(s, snap.path); perr != nil {
			fmt.Fprintln(os.Stderr, "oocd: cache snapshot persist:", perr)
		}
	}
	if stats {
		fmt.Fprint(os.Stderr, s.MetricsText())
	}
	return err
}

// loadSnapshotFile restores the caches from a boot snapshot. A missing
// file means a first boot — start cold, quietly. Anything else wrong
// with the file (corruption, a version or schema mismatch from an
// incompatible build) is reported clearly and the daemon starts cold:
// a stale snapshot is rejected, never silently misused.
func loadSnapshotFile(s *server.Server, path string) {
	snap, err := cachesnap.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return
		}
		fmt.Fprintf(os.Stderr, "oocd: cache snapshot %s rejected (%v); starting cold\n", path, err)
		return
	}
	st := s.RestoreSnapshot(snap)
	fmt.Fprintf(os.Stderr, "oocd: cache snapshot %s: restored %d responses\n", path, st.Responses)
}

// persistSnapshot writes the live cache state to path atomically.
func persistSnapshot(s *server.Server, path string) error {
	return cachesnap.WriteFile(path, s.Snapshot())
}

// peerFill warms the caches from a running peer's GET /v1/cache.
// Unreachable peers and rejected bodies are warnings: the fresh
// replica still starts, cold.
func peerFill(s *server.Server, base string) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(base, "/") + "/v1/cache")
	if err != nil {
		fmt.Fprintf(os.Stderr, "oocd: peer fill from %s failed (%v); starting cold\n", base, err)
		return
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "oocd: peer fill:", cerr)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "oocd: peer fill from %s failed (HTTP %d); starting cold\n", base, resp.StatusCode)
		return
	}
	st, err := s.ReadSnapshot(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oocd: peer snapshot from %s rejected (%v); starting cold\n", base, err)
		return
	}
	fmt.Fprintf(os.Stderr, "oocd: peer fill from %s: restored %d responses\n", base, st.Responses)
}
