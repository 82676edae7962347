// Command dreamsim runs one simulation: a workload under a mitigation
// scheme at a Rowhammer threshold, printing performance and mitigation
// metrics. Compare against the unprotected baseline with -compare.
//
// Usage:
//
//	dreamsim -workload mcf -scheme mint-dreamr -trh 2000 -compare
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	dream "repro"
)

func main() {
	var (
		wl          = flag.String("workload", "mcf", "workload name (see -list)")
		scheme      = flag.String("scheme", "mint-dreamr", "mitigation scheme (see -list)")
		trh         = flag.Int("trh", 2000, "double-sided Rowhammer threshold")
		cores       = flag.Int("cores", 8, "number of cores (rate mode)")
		accesses    = flag.Uint64("accesses", 200_000, "memory accesses per core")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		compare     = flag.Bool("compare", false, "also run the unprotected baseline and report slowdown")
		list        = flag.Bool("list", false, "list workloads and schemes, then exit")
		listSchemes = flag.Bool("list-schemes", false,
			"list every registered mitigation scheme (with storage budget and security model), then exit")
		cacheDir = flag.String("cache-dir", ".dreamcache",
			`persistent result cache directory ("" disables; repeat runs are served from disk)`)
		cacheMax = flag.Int64("cache-max-bytes", 0,
			"disk cache size cap in bytes before LRU eviction (0 = 4 GiB default)")

		metrics = flag.String("metrics", "",
			`observability export formats, comma-separated ("jsonl", "csv", "prom"); empty = off`)
		metricsDir = flag.String("metrics-dir", "results",
			"directory for per-run metrics files")
		metricsEpoch = flag.Int("metrics-epoch", 0,
			"epoch sampler period in REF intervals (0 = default 16)")
	)
	flag.Parse()

	if *cacheDir != "" {
		// An unusable cache dir degrades to compute-only, never a failure.
		if err := dream.SetCacheDir(*cacheDir, *cacheMax); err != nil {
			fmt.Fprintln(os.Stderr, "dreamsim: disk cache disabled:", err)
		}
	}

	if *listSchemes {
		fmt.Printf("%-22s %-14s %6s %11s %5s  %s\n",
			"NAME", "SECURITY", "TRH>=", "KB/BANK@1K", "PRAC", "DESCRIPTION")
		for _, m := range dream.RegisteredSchemes() {
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
			fmt.Printf("%-22s %-14s %6s %11s %5s  %s\n",
				m.Name, m.Sec.Kind, trh, kb, prac, m.Desc)
		}
		return
	}
	if *list {
		fmt.Println("workloads:", strings.Join(dream.Workloads(), " "))
		ids := make([]string, 0)
		for _, s := range dream.Schemes() {
			ids = append(ids, string(s))
		}
		fmt.Println("schemes:  ", strings.Join(ids, " "))
		return
	}

	cfg := dream.Config{
		Workload:        *wl,
		Scheme:          dream.SchemeID(*scheme),
		TRH:             *trh,
		Cores:           *cores,
		AccessesPerCore: *accesses,
		Seed:            *seed,
	}
	if *metrics != "" {
		cfg.Metrics = &dream.MetricsOptions{
			Formats:   strings.Split(*metrics, ","),
			Dir:       *metricsDir,
			EpochRefs: *metricsEpoch,
		}
	}

	if *compare {
		base, res, slowdown, err := dream.CompareContext(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dreamsim:", err)
			os.Exit(1)
		}
		print1("baseline", base)
		print1(*scheme, res)
		fmt.Printf("slowdown: %.2f%%\n", 100*slowdown)
		return
	}
	res, err := dream.SimulateContext(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dreamsim:", err)
		os.Exit(1)
	}
	print1(*scheme, res)
}

func print1(name string, r dream.Result) {
	fmt.Printf("%-14s ipc-sum=%.3f simtime=%.0fus mpki=%.1f bw=%.1f%% acts=%d rowhits=%d\n",
		name, r.IPCSum(), r.SimTimeNS/1000, r.MPKI, 100*r.BWUtil, r.Activations, r.RowHits)
	fmt.Printf("               nrr=%d drfmsb=%d drfmab=%d rlp=%.2f mitigations=%d sram=%.1fKB/subch\n",
		r.NRRs, r.DRFMsbs, r.DRFMabs, r.RLP, r.Mitigations, float64(r.StorageBits)/8/1024)
}
