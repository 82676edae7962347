package exp

import (
	"fmt"

	"repro/internal/security"
	"repro/internal/stats"
)

// Table1 reproduces Table 1: Graphene's per-bank storage versus threshold
// (15.2 / 7.9 / 4.1 KB per bank at T_RH = 250/500/1000).
func Table1(o Options) error {
	t := stats.Table{Title: "Table 1: Graphene storage",
		Columns: []string{"T_RH", "entries/bank", "KB/bank", "KB/sub-channel"}}
	for _, trh := range []int{250, 500, 1000} {
		kb := security.GrapheneKBPerBank(trh)
		t.AddRow(fmt.Sprintf("%d", trh),
			fmt.Sprintf("%d", security.GrapheneEntries(trh)),
			fmt.Sprintf("%.1f", kb),
			fmt.Sprintf("%.0f", kb*security.BanksPerSubChannel))
	}
	fmt.Fprintln(o.out(), t.String())
	return nil
}

// Table4 reproduces Table 4: the revised tracker parameters DREAM-R needs
// at T_RH = 2K — PARA p: 1/100 → 1/85 (or 1/99 with ATM); MINT W: 100 → 97
// (or 99 with ATM).
func Table4(o Options) error {
	t := stats.Table{Title: "Table 4: revising trackers for DREAM-R (T_RH=2K)",
		Columns: []string{"tracker", "coupled DRFM", "DREAM-R", "DREAM-R + ATM"}}
	trh := 2000
	t.AddRow("PARA",
		fmt.Sprintf("p = 1/%.0f", 1/security.PARAProb(trh)),
		fmt.Sprintf("p = 1/%.0f (exact 1/%.1f)", 1/security.RevisedPARAProbApprox(trh), 1/security.RevisedPARAProb(trh)),
		fmt.Sprintf("p = 1/%.0f", 1/security.ATMProb(trh, security.ATMTH)))
	t.AddRow("MINT",
		fmt.Sprintf("W = %d", security.MINTWindow(trh)),
		fmt.Sprintf("W = %d", security.RevisedMINTWindow(trh)),
		fmt.Sprintf("W = %d", security.ATMWindow(trh, security.ATMTH)))
	fmt.Fprintln(o.out(), t.String())
	return nil
}

// Table6 reproduces Table 6: DREAM-C configurations (gang size, DRFMab
// count, SRAM/bank) against Graphene's CAM/bank.
func Table6(o Options) error {
	t := stats.Table{Title: "Table 6: DREAM-C configurations",
		Columns: []string{"T_RH", "gang", "DRFMab/mitigation", "DREAM-C KB/bank", "Graphene KB/bank", "ratio"}}
	for _, row := range security.DreamCTable6() {
		ratio, err := security.StorageRatio(row.GraphKBBank, row.DreamCKBBank)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", row.TRH), fmt.Sprintf("%d", row.GangSize),
			fmt.Sprintf("%d", row.NumDRFMab),
			fmt.Sprintf("%.2f", row.DreamCKBBank),
			fmt.Sprintf("%.1f", row.GraphKBBank),
			fmt.Sprintf("%.1fx", ratio))
	}
	fmt.Fprintln(o.out(), t.String())
	abacus := security.ABACuSKBPerBank(125)
	dreamc := security.DreamCKBPerBank(125, 1)
	ratio, err := security.StorageRatio(abacus, dreamc)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out(), "ABACuS at T_RH=125: %.1f KB/bank vs DREAM-C %.2f KB/bank (%.1fx, paper: 6.33x)\n\n",
		abacus, dreamc, ratio)
	return nil
}

// Table7 reproduces Table 7: the tolerated T_RH of DREAM-R (MINT) with and
// without the DRFM rate limit, versus window size.
func Table7(o Options) error {
	t := stats.Table{Title: "Table 7: T_RH of DREAM-R (MINT) under the DRFM rate limit",
		Columns: []string{"MINT-W", "T_RH (DREAM-R)", "+ with RMAQ", "RMAQ entries"}}
	for _, w := range []int{25, 30, 35, 40, 45, 50, 100} {
		t.AddRow(fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", security.MINTToleratedTRH(w)),
			fmt.Sprintf("+%d", security.RMAQImpact(w)),
			fmt.Sprintf("%d", security.RMAQEntries(w)))
	}
	fmt.Fprintln(o.out(), t.String())
	return nil
}

// Fig11 reproduces Figure 11: Monte-Carlo inter-selection distances for
// PARA (exponential — many short gaps) versus MINT (triangular around W —
// well spaced), 4 banks x 1000 activations.
func Fig11(o Options) error {
	banks, acts := 4, 1000
	para := security.InterSelectionPARA(1.0/100, banks, acts, o.seed())
	mint := security.InterSelectionMINT(100, banks, acts, o.seed())
	t := stats.Table{Title: "Figure 11: inter-selection distances (4 banks, 1000 ACTs)",
		Columns: []string{"tracker", "selections", "mean dist", "<W/2 gaps", "histogram (bins of 25 up to 200)"}}
	for _, res := range []security.InterSelectionResult{para, mint} {
		d := res.Distances()
		var sum int
		for _, x := range d {
			sum += x
		}
		mean := 0.0
		if len(d) > 0 {
			mean = float64(sum) / float64(len(d))
		}
		hist := security.DistanceHistogram(d, 200, 8)
		nsel := 0
		for _, s := range res.Selections {
			nsel += len(s)
		}
		t.AddRow(res.Tracker, fmt.Sprintf("%d", nsel), fmt.Sprintf("%.1f", mean),
			stats.Pct(security.ShortGapFraction(d, 50)), fmt.Sprintf("%v", hist))
	}
	fmt.Fprintln(o.out(), t.String())
	fmt.Fprintln(o.out(), "PARA's exponential gaps include many short re-selections that force early DRFMs;")
	fmt.Fprintln(o.out(), "MINT's triangular gaps cluster near W, allowing longer DRFM delays and higher RLP (§4.7).")
	fmt.Fprintln(o.out())
	return nil
}
