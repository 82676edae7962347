// Command dreamctl renders a figure by fanning its campaign across dreamd
// shards. The figure driver (planning, merging, rendering) runs here; only
// cell execution goes remote, so the rendered output is byte-identical to an
// in-process run — results round-trip through versioned JSON bit-exactly and
// cells merge in deterministic plan order no matter which shard ran them.
//
//	dreamctl -run fig5 -quick -peers http://127.0.0.1:8377,http://127.0.0.1:8378
//	dreamctl -run fig5 -quick -local        # in-process reference output
//
// Shards pointed at one shared -campaign-dir (and -cache-dir) work-steal the
// campaign through the lease ledger; independent shards duplicate cells
// (wasteful, never incorrect). Cells that fail retryably are re-posted to
// surviving shards; a shard whose plan hash, schema version, or cache key
// generation disagrees is dropped with a plan_mismatch error rather than
// merged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/svc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can compare -local and
// -peers renderings byte for byte.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dreamctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		peers = fs.String("peers", "",
			"comma-separated dreamd base URLs to fan the campaign across")
		runID = fs.String("run", "", "experiment ID to render (see -list)")
		quick = fs.Bool("quick", false, "reduced workload set and shorter traces")
		seed  = fs.Uint64("seed", 0, "override the experiment seed")
		wls   = fs.String("workloads", "", "comma-separated workload subset")
		list  = fs.Bool("list", false, "list experiments and exit")
		local = fs.Bool("local", false,
			"execute cells in-process instead of fanning out (reference output)")
		cacheDir = fs.String("cache-dir", ".dreamcache",
			`persistent result cache directory for -local ("" disables)`)
		cacheMax = fs.Int64("cache-max-bytes", 0,
			"disk cache size cap in bytes before LRU eviction (0 = 4 GiB)")
		cellTO = fs.Duration("cell-timeout", 0,
			"per-cell execution deadline on the shard (0 = shard default)")
		rounds = fs.Int("retry-rounds", 2,
			"extra rounds re-posting unresolved cells to surviving shards (0 = none)")
		timeout = fs.Duration("timeout", 0,
			"wall-clock deadline per simulation for -local (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	harness.SetOutput(stderr)

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exp.Registry {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.ID, e.Desc)
		}
		if *runID == "" && !*list {
			fmt.Fprintln(stderr, "dreamctl: -run required (IDs above)")
			return 2
		}
		return 0
	}
	e, err := exp.Find(*runID)
	if err != nil {
		fmt.Fprintln(stderr, "dreamctl:", err)
		return 1
	}

	o := exp.Options{Quick: *quick, Seed: *seed, Out: stdout}
	if *wls != "" {
		o.Workloads = strings.Split(*wls, ",")
	}
	if *local {
		if *cacheDir != "" {
			if cerr := exp.SetDiskCache(*cacheDir, *cacheMax); cerr != nil {
				fmt.Fprintf(stderr, "dreamctl: disk cache disabled: %v\n", cerr)
			}
			defer exp.SetDiskCache("", 0)
		}
		if *timeout > 0 {
			prev := exp.SetRunTimeout(*timeout)
			defer exp.SetRunTimeout(prev)
		}
	} else {
		if *peers == "" {
			fmt.Fprintln(stderr, "dreamctl: need -peers (or -local for an in-process run)")
			return 2
		}
		var eps []string
		for _, ep := range strings.Split(*peers, ",") {
			if ep = strings.TrimSpace(ep); ep != "" {
				eps = append(eps, ep)
			}
		}
		// CampaignClient reads RetryRounds 0 as its default; the flag's 0
		// means no extra rounds.
		retry := *rounds
		if retry <= 0 {
			retry = -1
		}
		o.Executor = &svc.CampaignClient{
			Endpoints:   eps,
			RetryRounds: retry,
			CellTimeout: *cellTO,
		}
	}

	start := time.Now()
	if err := e.Run(o); err != nil {
		fmt.Fprintf(stderr, "dreamctl: %s: %v\n", e.ID, err)
		return 1
	}
	fmt.Fprintf(stderr, "dreamctl: %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	return 0
}
