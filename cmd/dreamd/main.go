// Command dreamd serves DREAM simulations over HTTP/JSON with a robust
// request lifecycle: bounded worker pool, depth-limited admission queue
// (full → 429 + Retry-After), per-request deadlines, singleflight dedup of
// identical in-flight requests, bounded salted retries of transient
// failures, per-class circuit breakers over watchdog-style stalls (open →
// 503 + Retry-After, half-open probes), panic isolation into structured
// errors, crash-durable completion journaling, and graceful drain on
// SIGTERM/SIGINT. Results persist in -cache-dir, so a restarted server
// answers previously completed requests byte-identically from disk.
//
// Endpoints:
//
//	POST /v1/simulate   {"workload":"bfs","scheme":"mint-dreamr",...,"timeout_ms":60000}
//	POST /v1/compare    same body; returns base, scheme, slowdown
//	POST /v1/attack     {"kind":"double-sided","scheme":"moat",...}
//	POST /v1/campaign   version-stamped cell plan; streams per-cell JSONL
//	                    results (lease-ledger work-stealing with -campaign-dir)
//	GET  /healthz       liveness (always 200 while the process runs)
//	GET  /readyz        readiness + warm journal entry count
//	GET  /metrics       Prometheus text exposition
//	POST /debug/fault   test-only fault injection (requires -enable-faults)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/svc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main minus the process exit, so tests can drive the server end to
// end. When ready is non-nil it receives the bound listen address once the
// server is accepting (tests pass ":0" and read the port from here).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("dreamd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8377", "listen address")
		workers = fs.Int("workers", 2, "simulation worker pool size")
		depth   = fs.Int("queue-depth", 8, "admission queue depth (full queue → 429)")
		defTO   = fs.Duration("request-timeout", 2*time.Minute, "default per-request deadline")
		maxTO   = fs.Duration("max-request-timeout", 10*time.Minute, "cap on client-supplied deadlines")
		simTO   = fs.Duration("sim-timeout", time.Minute,
			"per-simulation wall-clock watchdog (0 disables; trips are retried, then 503)")
		retries = fs.Int("retries", 2,
			"total attempts (1 = no retry) per transient simulation failure")
		backoff = fs.Duration("retry-backoff", 0,
			"base delay between retry attempts (doubles per retry; 0 = immediate)")
		brkN = fs.Int("breaker-threshold", 3,
			"consecutive watchdog-class failures that trip a request class's breaker")
		brkFor = fs.Duration("breaker-open", 15*time.Second,
			"how long a tripped breaker sheds before probing recovery")
		cacheDir = fs.String("cache-dir", ".dreamcache",
			`persistent result cache directory ("" serves compute-only)`)
		cacheMax = fs.Int64("cache-max-bytes", 0,
			"disk cache size cap before LRU eviction (0 = 4 GiB)")
		journal = fs.String("journal", "results/dreamd.journal.jsonl",
			`completion journal path ("" disables; must not live inside -cache-dir)`)
		drainTO = fs.Duration("drain-timeout", 30*time.Second,
			"graceful-shutdown drain budget before in-flight work is cancelled")
		enableFaults = fs.Bool("enable-faults", false,
			"expose POST /debug/fault (test-only fault injection)")
		campaignDir = fs.String("campaign-dir", "",
			`shared lease-ledger directory for /v1/campaign work-stealing ("" runs campaigns standalone); every shard of one campaign must share it along with -cache-dir`)
		leaseTTL = fs.Duration("lease-ttl", 90*time.Second,
			"campaign cell lease lifetime; a crashed shard's cells are reclaimable after this")
		shardID = fs.String("shard-id", "",
			`this shard's identity in lease records ("" = host-pid); live shards must not share one`)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *retries < 1 {
		fmt.Fprintf(stderr, "dreamd: -retries %d: must be at least 1 (total attempts, 1 = no retry)\n", *retries)
		return 2
	}
	harness.SetOutput(stderr)

	service, err := svc.New(svc.Options{
		Workers:          *workers,
		QueueDepth:       *depth,
		DefaultTimeout:   *defTO,
		MaxTimeout:       *maxTO,
		SimTimeout:       *simTO,
		Retry:            harness.Backoff{MaxAttempts: *retries, BaseDelay: *backoff},
		BreakerThreshold: *brkN,
		BreakerOpenFor:   *brkFor,
		CacheDir:         *cacheDir,
		CacheMaxBytes:    *cacheMax,
		JournalPath:      *journal,
		DrainTimeout:     *drainTO,
		EnableFaults:     *enableFaults,
		CampaignDir:      *campaignDir,
		LeaseTTL:         *leaseTTL,
		ShardID:          *shardID,
	})
	if err != nil {
		fmt.Fprintf(stderr, "dreamd: %v\n", err)
		return 1
	}
	service.Start()
	if j := service.Journal(); j != nil {
		if n := len(j.Entries()); n > 0 {
			fmt.Fprintf(stdout, "dreamd: journal %s holds %d completions; matching requests served warm from cache\n",
				j.Path(), n)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dreamd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: service.Handler()}
	fmt.Fprintf(stdout, "dreamd: listening on %s (workers=%d queue=%d cache=%q)\n",
		ln.Addr(), *workers, *depth, *cacheDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	select {
	case got := <-sig:
		fmt.Fprintf(stdout, "dreamd: %v: draining (budget %v)\n", got, *drainTO)
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "dreamd: serve: %v\n", err)
			return 1
		}
		return 0
	}

	// Graceful drain: stop the HTTP listener (in-flight handlers finish),
	// then drain the service (stop admission, run out the queue, cancel
	// whatever exceeds the budget).
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTO+5*time.Second)
	defer cancel()
	srv.Shutdown(shCtx)
	if err := service.Shutdown(shCtx); err != nil {
		fmt.Fprintf(stderr, "dreamd: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "dreamd: drained cleanly")
	return 0
}
