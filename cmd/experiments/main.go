// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list                 # show every experiment
//	experiments -run fig9             # reproduce Figure 9
//	experiments -run fig15top -quick  # reduced run for a fast look
//	experiments -run all              # everything (slow); journals to results/
//	experiments -run all -resume      # skip experiments already journaled ok
//	experiments -run all -keep-going  # run past failures, summarise at exit
//	experiments -run fig19 -quick -cache-dir "" -cpuprofile cpu.prof -memprofile mem.prof
//	                                  # then: go tool pprof cpu.prof
//	                                  # (-cache-dir "" so the run simulates
//	                                  # instead of replaying the disk cache)
//	experiments -run fig5 -quick -peers http://127.0.0.1:8377,http://127.0.0.1:8378
//	                                  # fan each figure's cells across dreamd shards
//
// Performance flags: -perfstats prints per-figure wall-clock and simulator
// events/sec at exit (cache-served figures report zero events). Results
// persist across runs in -cache-dir (default .dreamcache; "" or -nocache
// disables), capped at -cache-max-bytes with LRU eviction.
//
// Robustness flags: -timeout bounds each simulation's wall-clock time
// (converting livelocks into per-run failures), -journal controls where
// completions are recorded, and -fault (or EXPERIMENTS_FAULT) injects a
// test-only failure to exercise the harness.
//
// Sharding: -peers runs every campaign cell on the listed dreamd shards while
// planning, merging and rendering stay here, so the figure is byte-identical
// to an in-process run (results round-trip through versioned JSON bit-exactly
// and merge in plan order). Shards sharing one -campaign-dir and -cache-dir
// work-steal the campaign through the lease ledger; independent shards
// duplicate cells (wasteful, never incorrect). Retryable cell failures are
// re-posted to surviving shards, and a shard whose plan hash, schema version
// or cache key generation disagrees is dropped instead of merged.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/svc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI end to end
// and assert on exit codes, output, and journal side effects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs      = fs.String("run", "", "experiment ID(s), comma-separated, or 'all'")
		quick       = fs.Bool("quick", false, "reduced workload set and shorter traces")
		seed        = fs.Uint64("seed", 0, "override the experiment seed")
		wls         = fs.String("workloads", "", "comma-separated workload subset")
		list        = fs.Bool("list", false, "list experiments and exit")
		listSchemes = fs.Bool("list-schemes", false,
			"list every registered mitigation scheme (with storage budget and security model) and exit")
		schemes = fs.String("scheme", "",
			"registered scheme name(s), comma-separated, appended as extra comparison columns to experiments that take them (postdream)")
		nocache  = fs.Bool("nocache", false, "disable the process-wide trace/baseline run cache (memory and disk)")
		cacheDir = fs.String("cache-dir", ".dreamcache",
			`persistent result cache directory ("" disables the disk tier)`)
		cacheMax = fs.Int64("cache-max-bytes", 0,
			"disk cache size cap in bytes before LRU eviction (0 = 4 GiB default)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		perfStats = fs.Bool("perfstats", false,
			"print per-figure wall-clock and simulator events/sec at exit")

		timeout = fs.Duration("timeout", 0,
			"wall-clock deadline per simulation (0 = off; '-run all' defaults to 15m)")
		keepGoing = fs.Bool("keep-going", false,
			"run every requested experiment despite failures; exit non-zero with a summary")
		resume = fs.Bool("resume", false,
			"skip experiments whose latest journal entry succeeded")
		journalPath = fs.String("journal", "",
			`journal file ("" = results/journal.jsonl for '-run all', none otherwise; "off" disables)`)
		fault = fs.String("fault", "",
			"inject a test fault: kind:nth[:times], kinds panic|error|flaky|stall (or $EXPERIMENTS_FAULT)")

		metrics = fs.String("metrics", "",
			`observability export formats, comma-separated ("jsonl", "csv", "prom"); empty = off`)
		metricsDir = fs.String("metrics-dir", filepath.Join("results", "metrics"),
			"directory for per-run metrics files")
		metricsEpoch = fs.Int("metrics-epoch", 0,
			"epoch sampler period in REF intervals (0 = default 16)")

		peers = fs.String("peers", "",
			"comma-separated dreamd base URLs to run each figure's cells on (\"\" = in-process)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	harness.SetOutput(stderr)
	if *peers != "" && *metrics != "" {
		fmt.Fprintln(stderr, "experiments: -metrics cannot be combined with -peers (metrics are written where cells run)")
		return 2
	}
	if *nocache {
		exp.SetCacheEnabled(false)
	} else if *cacheDir != "" {
		// An unusable cache dir degrades to compute-only; it must never turn
		// a reproducible run into a failure.
		if err := exp.SetDiskCache(*cacheDir, *cacheMax); err != nil {
			fmt.Fprintf(stderr, "experiments: disk cache disabled: %v\n", err)
		}
		defer exp.SetDiskCache("", 0)
	}
	if *metrics != "" {
		prev := exp.SetDefaultMetrics(&obs.Options{
			Formats:   strings.Split(*metrics, ","),
			Dir:       *metricsDir,
			EpochRefs: *metricsEpoch,
		})
		defer exp.SetDefaultMetrics(prev)
	}

	if spec := firstNonEmpty(*fault, os.Getenv("EXPERIMENTS_FAULT")); spec != "" {
		kind, nth, times, err := harness.ParseFault(spec)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 2
		}
		restore := harness.InjectFault(kind, nth, times)
		defer restore()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live data, not garbage
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
			}
		}()
	}

	if *listSchemes {
		printSchemeList(stdout)
		return 0
	}
	if *list || *runIDs == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exp.Registry {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.ID, e.Desc)
		}
		return 0
	}
	runAll := *runIDs == "all"

	// A full campaign gets a watchdog by default: one livelocked run must
	// not hang the remaining figures. Single experiments leave it off so
	// interactive debugging is never interrupted.
	effTimeout := *timeout
	timeoutSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			timeoutSet = true
		}
	})
	if runAll && !timeoutSet {
		effTimeout = 15 * time.Minute
	}
	prevTimeout := exp.SetRunTimeout(effTimeout)
	defer exp.SetRunTimeout(prevTimeout)

	jpath := *journalPath
	if jpath == "" && runAll {
		jpath = filepath.Join("results", "journal.jsonl")
	}
	var journal *harness.Journal
	if jpath != "" && jpath != "off" {
		var err error
		journal, err = harness.OpenJournal(jpath)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
	}
	if *resume && journal == nil {
		fmt.Fprintln(stderr, "experiments: -resume needs a journal (set -journal, or use -run all)")
		return 2
	}

	var targets []exp.Experiment
	if runAll {
		targets = exp.Registry
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := exp.Find(id)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 1
			}
			targets = append(targets, e)
		}
	}

	o := exp.Options{Quick: *quick, Seed: *seed}
	if *wls != "" {
		o.Workloads = strings.Split(*wls, ",")
	}
	if *schemes != "" {
		o.ExtraSchemes = strings.Split(*schemes, ",")
	}
	if *peers != "" {
		var eps []string
		for _, ep := range strings.Split(*peers, ",") {
			if ep = strings.TrimSpace(ep); ep != "" {
				eps = append(eps, ep)
			}
		}
		o.Executor = &svc.CampaignClient{Endpoints: eps}
	}

	var perf []perfEntry
	runOne := func(e exp.Experiment) error {
		if *resume && journal.Completed(e.ID) {
			fmt.Fprintf(stdout, "--- %s: already completed, skipping (resume) ---\n\n", e.ID)
			return nil
		}
		start := time.Now()
		evStart := exp.SimEvents()
		fmt.Fprintf(stdout, "--- %s: %s ---\n", e.ID, e.Desc)
		var buf bytes.Buffer
		ro := o
		ro.Out = io.MultiWriter(stdout, &buf)
		err := e.Run(ro)
		elapsed := time.Since(start)
		if *perfStats {
			perf = append(perf, perfEntry{
				id:      e.ID,
				elapsed: elapsed,
				events:  exp.SimEvents() - evStart,
			})
		}
		if journal != nil {
			ent := harness.Entry{
				ID:         e.ID,
				Status:     harness.StatusOK,
				Output:     buf.String(),
				ElapsedMS:  elapsed.Milliseconds(),
				FinishedAt: time.Now().UTC().Format(time.RFC3339),
			}
			if err != nil {
				ent.Status = harness.StatusFail
				ent.Error = err.Error()
			}
			if jerr := journal.Record(ent); jerr != nil {
				fmt.Fprintln(stderr, "experiments:", jerr)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			return err
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", e.ID, elapsed.Round(time.Millisecond))
		return nil
	}

	var failed []string
	for _, e := range targets {
		if err := runOne(e); err != nil {
			failed = append(failed, e.ID)
			if !*keepGoing {
				printCacheStats(stdout)
				if *perfStats {
					printPerfStats(stdout, perf)
				}
				return 1
			}
		}
	}
	printCacheStats(stdout)
	if *perfStats {
		printPerfStats(stdout, perf)
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "experiments: %d of %d failed: %s\n",
			len(failed), len(targets), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// printSchemeList renders the scheme registry: one row per registered
// scheme with its analytic storage budget at T_RH = 1000 and declared
// security model.
func printSchemeList(w io.Writer) {
	fmt.Fprintf(w, "%-22s %-14s %6s %11s %5s  %s\n",
		"NAME", "SECURITY", "TRH>=", "KB/BANK@1K", "PRAC", "DESCRIPTION")
	for _, m := range exp.SchemeMetas() {
		trh := "-"
		if m.Sec.GuaranteedTRH > 0 {
			trh = fmt.Sprintf("%d", m.Sec.GuaranteedTRH)
		}
		kb := "-"
		if v, ok := m.StorageKBPerBank["1000"]; ok {
			kb = fmt.Sprintf("%.2f", v)
		}
		prac := ""
		if m.PRAC {
			prac = "yes"
		}
		fmt.Fprintf(w, "%-22s %-14s %6s %11s %5s  %s\n",
			m.Name, m.Sec.Kind, trh, kb, prac, m.Desc)
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// perfEntry is one experiment's contribution to the -perfstats report.
type perfEntry struct {
	id      string
	elapsed time.Duration
	events  uint64
}

// printPerfStats reports per-figure wall-clock and event throughput. The
// events column counts only simulations actually executed during that
// figure: a figure fully served by the run cache shows zero events, which is
// exactly the cache doing its job, not a measurement error.
func printPerfStats(w io.Writer, perf []perfEntry) {
	if len(perf) == 0 {
		return
	}
	fmt.Fprintln(w, "[perfstats]")
	var totalEv uint64
	var totalWall time.Duration
	for _, p := range perf {
		totalEv += p.events
		totalWall += p.elapsed
		fmt.Fprintf(w, "  %-20s %10v  %12d events  %s\n",
			p.id, p.elapsed.Round(time.Millisecond), p.events, eventsPerSec(p.events, p.elapsed))
	}
	fmt.Fprintf(w, "  %-20s %10v  %12d events  %s\n",
		"total", totalWall.Round(time.Millisecond), totalEv, eventsPerSec(totalEv, totalWall))
}

func eventsPerSec(ev uint64, d time.Duration) string {
	if d <= 0 || ev == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fM ev/s", float64(ev)/d.Seconds()/1e6)
}

// printCacheStats reports how much redundant work the run cache absorbed
// over this invocation. An in-memory miss served by the disk tier is still
// reuse, not computation, so the computed counts subtract the disk hits —
// a fully warm rerun reports 0 generated / 0 simulated rather than
// masquerading as fresh work (or, before this split, as none at all).
func printCacheStats(w io.Writer) {
	st := exp.CacheStats()
	activity := st.TraceMisses + st.TraceHits + st.RunMisses + st.RunHits + st.MitMisses + st.MitHits
	if activity > 0 {
		fmt.Fprintf(w, "[run cache: traces %d generated (+%d mem, +%d disk reused), baselines %d simulated (+%d mem, +%d disk), mitigated %d simulated (+%d mem, +%d disk)]\n",
			st.TraceMisses-st.DiskTraceHits, st.TraceHits, st.DiskTraceHits,
			st.RunMisses-st.DiskRunHits, st.RunHits, st.DiskRunHits,
			st.MitMisses-st.DiskMitHits, st.MitHits, st.DiskMitHits)
	}
	d := st.Disk
	if exp.DiskCacheDir() != "" || d.Hits+d.Misses+d.Puts > 0 {
		fmt.Fprintf(w, "[disk cache: %d hits, %d misses, %d fills, %.1f MB in %d entries, %d evicted, %d corrupt, %d errors]\n",
			d.Hits, d.Misses, d.Puts, float64(d.BytesHeld)/(1<<20), d.Entries,
			d.Evictions, d.Corrupt, d.Errors)
	}
}
