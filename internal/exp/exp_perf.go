package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	dreamcore "repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/tracker"
)

// Fig5 reproduces Figure 5: the motivation result that a straightforward
// DRFM implementation of PARA and MINT (coupled sampling+mitigation) incurs
// far higher slowdowns than the hypothetical NRR — paper averages at
// T_RH = 2K: PARA 3.9% (NRR) / 12.7% (DRFMsb) / 49% (DRFMab); MINT 3.9% /
// 15.9% / 82%.
func Fig5(o Options) error {
	schemes := []Scheme{
		PARAWith(tracker.ModeNRR), PARAWith(tracker.ModeDRFMsb), PARAWith(tracker.ModeDRFMab),
		MINTWith(tracker.ModeNRR), MINTWith(tracker.ModeDRFMsb), MINTWith(tracker.ModeDRFMab),
	}
	wls := o.workloads()
	// A degraded grid still renders: failed cells print FAIL and err names
	// the underlying failures (the pattern every grid figure follows).
	slow, _, err := slowdownGrid(o, wls, 2000, 8, schemes)
	printSlowdownTable(o.out(), "Figure 5: slowdown at T_RH=2K, coupled trackers over NRR/DRFMsb/DRFMab",
		wls, schemeNames(schemes), slow)
	return err
}

// Table5 reproduces Table 5: average RLP of PARA and MINT with coupled
// DRFMsb (≈1) versus DREAM-R (3.2 / 7.5).
func Table5(o Options) error {
	schemes := []Scheme{
		PARAWith(tracker.ModeDRFMsb), MINTWith(tracker.ModeDRFMsb),
		DreamRPARA(true), DreamRMINT(true, false),
	}
	wls := o.workloads()
	_, raw, err := slowdownGrid(o, wls, 2000, 8, schemes)
	t := stats.Table{Title: "Table 5: average RLP (rows mitigated per DRFM command)",
		Columns: []string{"design", "avg RLP"}}
	for _, sc := range schemes {
		var sum float64
		n := 0
		for _, wl := range wls {
			if r, ok := raw[wl][sc.Name]; ok && r.RLP > 0 {
				sum += r.RLP
				n++
			}
		}
		if n > 0 {
			t.AddRow(sc.Name, fmt.Sprintf("%.2f", sum/float64(n)))
		} else {
			t.AddRow(sc.Name, "n/a")
		}
	}
	fmt.Fprintln(o.out(), t.String())
	return err
}

// Fig9 reproduces Figure 9: DREAM-R recovers (PARA) or beats (MINT) the NRR
// slowdown — paper averages: PARA 3.92/12.7/4.24%, MINT 3.84/15.9/2.1%.
func Fig9(o Options) error {
	schemes := []Scheme{
		PARAWith(tracker.ModeNRR), PARAWith(tracker.ModeDRFMsb), DreamRPARA(true),
		MINTWith(tracker.ModeNRR), MINTWith(tracker.ModeDRFMsb), DreamRMINT(true, false),
	}
	wls := o.workloads()
	slow, _, err := slowdownGrid(o, wls, 2000, 8, schemes)
	printSlowdownTable(o.out(), "Figure 9: slowdown at T_RH=2K, NRR vs DRFMsb vs DREAM-R",
		wls, schemeNames(schemes), slow)
	return err
}

// Fig10 reproduces Figure 10: DREAM-R slowdown versus threshold — paper
// averages: PARA 16.75/8.4/4.24/2.14% and MINT 8.4/4.23/2.1/1.06% at
// T_RH = 0.5K/1K/2K/4K.
func Fig10(o Options) error {
	schemes := []Scheme{
		PARAWith(tracker.ModeDRFMsb), DreamRPARA(true),
		MINTWith(tracker.ModeDRFMsb), DreamRMINT(true, false),
	}
	wls := o.workloads()
	names := schemeNames(schemes)
	rows := slowdownSweep(o, wls, []int{500, 1000, 2000, 4000}, 8, schemes, o.accesses())
	t, err := averageTable("Figure 10: average slowdown of DREAM-R vs T_RH", names, wls, names, rows)
	fmt.Fprintln(o.out(), t.String())
	return err
}

// Fig15Top reproduces Figure 15 (top): DREAM-C grouping functions at
// T_RH = 500 — paper averages 14.4% (set-associative) vs 2.6% (randomized),
// with lbm and parest past 70% under set-associative grouping.
func Fig15Top(o Options) error {
	schemes := []Scheme{
		DreamC(dreamcore.GroupSetAssociative, 1, false),
		DreamC(dreamcore.GroupRandomized, 1, false),
	}
	wls := o.workloads()
	slow, _, err := slowdownGridN(o, wls, 500, 8, schemes, o.counterAccesses())
	printSlowdownTable(o.out(), "Figure 15 (top): DREAM-C grouping at T_RH=500",
		wls, schemeNames(schemes), slow)
	return err
}

// Fig15Bot reproduces Figure 15 (bottom): DREAM-C (randomized) across
// thresholds — paper averages 5.1/2.6/0.8% at 250/500/1000.
func Fig15Bot(o Options) error {
	wls := o.workloads()
	t := stats.Table{Title: "Figure 15 (bottom): DREAM-C (randomized) slowdown vs T_RH",
		Columns: []string{"T_RH", "average", "worst", "worst workload"}}
	sc := DreamC(dreamcore.GroupRandomized, 1, false)
	var errs []error
	for _, r := range slowdownSweep(o, wls, []int{250, 500, 1000}, 8, []Scheme{sc}, o.counterAccesses()) {
		errs = append(errs, r.err)
		var sum, worst float64
		worstWL := ""
		n := 0
		for _, wl := range wls {
			v := r.slow[wl][sc.Name]
			if math.IsNaN(v) {
				continue
			}
			sum += v
			n++
			if v > worst {
				worst, worstWL = v, wl
			}
		}
		avg := math.NaN()
		if n > 0 {
			avg = sum / float64(n)
		}
		t.AddRow(fmt.Sprintf("%d", r.trh), stats.Pct(avg), stats.Pct(worst), worstWL)
	}
	fmt.Fprintln(o.out(), t.String())
	return errors.Join(errs...)
}

// Fig17 reproduces Figure 17: ABACuS vs DREAM-C vs DREAM-C(2x) at
// T_RH = 125 — paper: 6.7% / 8.2% / (better than ABACuS) with storage
// 19 / 3 / 6 KB per bank.
func Fig17(o Options) error {
	schemes := []Scheme{
		ABACuS(),
		DreamC(dreamcore.GroupRandomized, 1, false),
		DreamC(dreamcore.GroupRandomized, 2, false),
	}
	wls := o.workloads()
	slow, _, err := slowdownGridN(o, wls, 125, 8, schemes, o.counterAccesses())
	printSlowdownTable(o.out(), "Figure 17: slowdown at T_RH=125", wls, schemeNames(schemes), slow)
	t, serr := storageTable("Figure 17: storage", 125, schemes)
	if serr != nil {
		return errors.Join(err, serr)
	}
	fmt.Fprintln(o.out(), t.String())
	return err
}

// storageTable reports each scheme's controller storage per bank at trh.
// Storage is a property of the design, not of a run: each scheme's
// sub-channel 0 tracker is built once with an unscaled Env, since a run's
// WindowScale-scaled thresholds would narrow its counters. No table's size
// depends on the seed.
func storageTable(title string, trh int, schemes []Scheme) (stats.Table, error) {
	t := stats.Table{Title: title, Columns: []string{"design", "KB/bank"}}
	env := unscaledEnv(trh, 1)
	for _, sc := range schemes {
		m, err := sc.Build(env, 0)
		if err != nil {
			return t, fmt.Errorf("building %s: %w", sc.Name, err)
		}
		t.AddRow(sc.Name, fmt.Sprintf("%.2f", float64(m.StorageBits())/8/1024/float64(env.Banks)))
	}
	return t, nil
}

// Fig19 reproduces Figure 19: PRAC (MOAT) vs MINT(DREAM-R) vs DREAM-C —
// paper: MOAT ≈9.7% at every threshold (intrinsic); DREAM-R beats it for
// T_RH ≥ 500; DREAM-C is ≈0.25x of PRAC at 500.
func Fig19(o Options) error {
	schemes := []Scheme{MOAT(), DreamRMINT(true, false), DreamC(dreamcore.GroupRandomized, 1, false)}
	wls := o.workloads()
	rows := slowdownSweep(o, wls, []int{500, 1000, 2000, 4000}, 8, schemes, o.counterAccesses())
	t, err := averageTable("Figure 19: average slowdown, PRAC vs DREAM",
		[]string{"moat(prac)", "mint-dreamr", "dreamc"}, wls, schemeNames(schemes), rows)
	fmt.Fprintln(o.out(), t.String())
	return err
}

// Fig22 reproduces Appendix C (Figure 22): DREAM-C under 16 cores, and the
// DREAM-C(2x) fix that keeps DCT entries per core constant — paper: 2x
// drops the 16-core slowdown at 500 from 5.5% to 0.2%.
func Fig22(o Options) error {
	schemes := []Scheme{
		DreamC(dreamcore.GroupRandomized, 1, false),
		DreamC(dreamcore.GroupRandomized, 2, false),
	}
	wls := o.workloads()
	rows := slowdownSweep(o, wls, []int{250, 500, 1000}, 16, schemes, o.counterAccesses())
	t, err := averageTable("Figure 22 (Appendix C): DREAM-C with 16 cores",
		[]string{"dreamc-16core", "dreamc-2x-16core"}, wls, schemeNames(schemes), rows)
	fmt.Fprintln(o.out(), t.String())
	return err
}

// Fig23 reproduces Appendix D (Figure 23): ten 8-way random SPEC2017
// mixes — DREAM-R and DREAM-C stay below MOAT for T_RH ≥ 500.
func Fig23(o Options) error {
	nmix := 10
	if o.Quick {
		nmix = 3
	}
	trhs := []int{500, 1000, 2000}
	schemes := []Scheme{MOAT(), DreamRMINT(true, false), DreamC(dreamcore.GroupRandomized, 1, false)}
	// Every cell carries the default WindowScale, so the whole sweep is one
	// wave, threshold-major. MixSeed routes trace generation through the run
	// cache: each mix is recorded once and replayed for every (T_RH, scheme)
	// cell, and the baseline simulation itself is memoized across the T_RH
	// sweep (it does not depend on the threshold).
	perMix := append([]Scheme{Baseline}, schemes...)
	var cells []CampaignCell
	for _, trh := range trhs {
		for m := 0; m < nmix; m++ {
			for _, sc := range perMix {
				cells = append(cells, CampaignCell{
					Workload: fmt.Sprintf("mix%d", m),
					MixSeed:  uint64(m) + 1,
					Scheme:   sc.Name,
					TRH:      trh, Cores: 8,
					Accesses:        o.accesses(),
					Seed:            o.seed(),
					WindowScaleBits: math.Float64bits(o.windowScale()),
				})
			}
		}
	}
	results := o.executor().ExecCells(context.Background(), cells)
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, harness.ErrSkipped) {
			return r.Err
		}
	}
	// Each mix's baseline is the cell planned just before its scheme cells.
	avg := make(map[int]map[string]float64)
	var base stats.RunResult
	for i, c := range cells {
		if c.Scheme == Baseline.Name {
			base = results[i].Res
			continue
		}
		// Weighted-speedup slowdown with the unprotected run on the
		// same traces as the per-core normalisation.
		sd, err := stats.SlowdownWS(base, results[i].Res, base.CoreIPC)
		if err != nil {
			return err
		}
		if avg[c.TRH] == nil {
			avg[c.TRH] = make(map[string]float64)
		}
		avg[c.TRH][c.Scheme] += sd / float64(nmix)
	}
	t := stats.Table{Title: "Figure 23 (Appendix D): mixed workloads, average slowdown",
		Columns: []string{"T_RH", "moat(prac)", "mint-dreamr", "dreamc"}}
	for _, trh := range trhs {
		row := []string{fmt.Sprintf("%d", trh)}
		for _, sc := range schemes {
			row = append(row, stats.Pct(avg[trh][sc.Name]))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(o.out(), t.String())
	return nil
}

// AblationDelay isolates the DREAM-R mechanism itself: coupled DRFMsb
// versus delayed DRFM (no ATM, revised parameters) versus delayed+ATM.
func AblationDelay(o Options) error {
	schemes := []Scheme{
		MINTWith(tracker.ModeDRFMsb), DreamRMINT(false, false), DreamRMINT(true, false),
	}
	wls := o.workloads()
	slow, raw, err := slowdownGrid(o, wls, 2000, 8, schemes)
	printSlowdownTable(o.out(), "Ablation: delaying DRFM (MINT, T_RH=2K)", wls, schemeNames(schemes), slow)
	printDRFMCounts(o.out(), "Ablation: DRFM command counts", "RLP", wls, schemes, raw)
	return err
}

// printDRFMCounts renders each scheme's DRFM command total over wls and its
// RLP averaged over the workloads that issued DRFMs.
func printDRFMCounts(w io.Writer, title, rlpCol string, wls []string, schemes []Scheme,
	raw map[string]map[string]stats.RunResult) {
	t := stats.Table{Title: title, Columns: []string{"design", "DRFMs", rlpCol}}
	for _, sc := range schemes {
		var drfms uint64
		var rlp float64
		n := 0
		for _, wl := range wls {
			r, ok := raw[wl][sc.Name]
			if !ok {
				continue
			}
			drfms += r.DRFMsbs + r.DRFMabs
			if r.RLP > 0 {
				rlp += r.RLP
				n++
			}
		}
		if n > 0 {
			rlp /= float64(n)
		}
		t.AddRow(sc.Name, fmt.Sprintf("%d", drfms), fmt.Sprintf("%.2f", rlp))
	}
	fmt.Fprintln(w, t.String())
}

// AblationATM contrasts the two ways DREAM-R restores the tolerated
// threshold (§4.4): revised parameters (more mitigations) versus ATM.
func AblationATM(o Options) error {
	schemes := []Scheme{
		DreamRPARA(false), DreamRPARA(true),
		DreamRMINT(false, false), DreamRMINT(true, false),
	}
	wls := o.workloads()
	slow, _, err := slowdownGrid(o, wls, 2000, 8, schemes)
	printSlowdownTable(o.out(), "Ablation: revised parameters vs ATM (T_RH=2K)",
		wls, schemeNames(schemes), slow)
	return err
}

// AblationGrouping extends Figure 15 with the entry-multiplier axis.
func AblationGrouping(o Options) error {
	schemes := []Scheme{
		DreamC(dreamcore.GroupSetAssociative, 1, false),
		DreamC(dreamcore.GroupRandomized, 1, false),
		DreamC(dreamcore.GroupRandomized, 2, false),
		DreamC(dreamcore.GroupRandomized, 4, false),
	}
	wls := o.workloads()
	slow, _, err := slowdownGridN(o, wls, 500, 8, schemes, o.counterAccesses())
	printSlowdownTable(o.out(), "Ablation: DCT grouping and sizing (T_RH=500)",
		wls, schemeNames(schemes), slow)
	return err
}
