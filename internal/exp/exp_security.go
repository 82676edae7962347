package exp

import (
	"context"
	"fmt"

	"repro/internal/addrmap"
	dreamcore "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// Table3 reproduces Table 3: per-workload MPKI, activations per row, the
// row-activation histogram, and bandwidth utilisation — the statistics
// DREAM-C's randomized grouping relies on (80% of rows idle per window).
func Table3(o Options) error {
	wls := o.workloads()
	results, err := Parallel(len(wls), func(i int) (stats.RunResult, error) {
		return Run(RunConfig{
			Workload:        wls[i],
			Cores:           8,
			AccessesPerCore: o.accesses(),
			TRH:             2000,
			Scheme:          Baseline,
			Seed:            o.seed(),
			Characterize:    true,
		})
	})
	if err != nil {
		return err
	}
	geom := addrmap.Default()
	totalRows := float64(geom.SubChannels) * float64(geom.Banks) * float64(geom.Rows)
	t := stats.Table{
		Title:   "Table 3: workload characterisation (per simulated interval, ACTs/row extrapolated to tREFW)",
		Columns: []string{"workload", "MPKI", "ACTs/row/tREFW", "rows>=1", "%rows 1-4", "%rows >=5", "BW util"},
	}
	for i, wl := range wls {
		r := results[i]
		scale := 32e6 / r.SimTimeNS // extrapolate to the 32 ms window
		actsPerRow := float64(r.Activations) / totalRows * scale
		t.AddRow(wl,
			fmt.Sprintf("%.1f", r.MPKI),
			fmt.Sprintf("%.2f", actsPerRow),
			fmt.Sprintf("%d", r.RowsTouched),
			stats.Pct(float64(r.Rows1to4)/totalRows),
			stats.Pct(float64(r.Rows5Plus)/totalRows),
			stats.Pct(r.BWUtil))
	}
	fmt.Fprintln(o.out(), t.String())
	fmt.Fprintln(o.out(), "Note: %rows columns are over the short simulated interval; the paper's Table 3")
	fmt.Fprintln(o.out(), "percentages are per full 32 ms tREFW, so absolute idle-row fractions here are higher.")
	fmt.Fprintln(o.out())
	return nil
}

// DoS reproduces the §5.5 denial-of-service analysis: the analytic
// worst-case (≈3x throughput loss at T_RH = 125) plus a simulated
// gang-focused attack measuring the slowdown it inflicts on co-running
// benign cores.
func DoS(o Options) error {
	// Analytic round arithmetic: one mitigation round is the gang's explicit
	// sampling burst plus a DRFMab (411 ns).
	ti := dram.DefaultTimings()
	roundNS := (memctrl.GangSampleDur + ti.TDRFMab).Nanoseconds()
	t := stats.Table{Title: "DoS analysis (§5.5): DREAM-C worst-case throughput",
		Columns: []string{"T_RH", "T_TH", "attack ns/round", "block ns/round", "throughput factor"}}
	for _, trh := range []int{125, 250, 500} {
		tth := trh / 2
		rounds := float64(security.DreamCGangSize(trh) / security.BanksPerSubChannel)
		attackNS, blockNS := security.DoSRoundNS(tth, ti.TRC, ti.TBUS, roundNS*rounds)
		t.AddRow(fmt.Sprintf("%d", trh), fmt.Sprintf("%d", tth),
			fmt.Sprintf("%.0f", attackNS), fmt.Sprintf("%.0f", blockNS),
			fmt.Sprintf("%.2fx", security.DoSThroughputFactor(attackNS, blockNS)))
	}
	fmt.Fprintln(o.out(), t.String())

	// Simulated attack: core 0 hammers one gang of the scheme's sub-channel
	// 0 tracker; cores 1..7 run mcf.
	trh := 125
	sc := DreamC(dreamcore.GroupRandomized, 1, false)
	probe, err := sc.Build(unscaledEnv(trh, o.seed()), 0)
	if err != nil {
		return err
	}
	gang := probe.(*dreamcore.DreamC).GangRows(12345)[0]
	mapper, err := addrmap.NewMOP4(addrmap.Default())
	if err != nil {
		return err
	}
	acc := o.accesses()
	mkTraces := func(attack bool) ([]cpu.Trace, error) {
		traces := make([]cpu.Trace, 8)
		if attack {
			a, err := workload.GangDoS(mapper, 0, gang, acc*4)
			if err != nil {
				return nil, err
			}
			traces[0] = a
		} else {
			traces[0] = workload.IdleTrace{}
		}
		p, err := workload.ByName("mcf")
		if err != nil {
			return nil, err
		}
		for i := 1; i < 8; i++ {
			g, err := workload.New(p, acc, i, o.seed())
			if err != nil {
				return nil, err
			}
			traces[i] = g
		}
		return traces, nil
	}
	var victims [2]stats.RunResult
	for i, attack := range []bool{false, true} {
		traces, err := mkTraces(attack)
		if err != nil {
			return err
		}
		victims[i], err = Run(RunConfig{
			Workload: "dos", Cores: 8, AccessesPerCore: acc, TRH: trh,
			Scheme: sc, Seed: o.seed(), WindowScale: 1, Traces: traces,
		})
		if err != nil {
			return err
		}
	}
	var basePerf, attackPerf float64
	for i := 1; i < 8; i++ {
		basePerf += victims[0].CoreIPC[i]
		attackPerf += victims[1].CoreIPC[i]
	}
	fmt.Fprintf(o.out(), "Simulated gang-DoS vs 7 benign mcf cores at T_RH=%d: benign slowdown %.1f%% (DRFMab rounds: %d)\n\n",
		trh, 100*(1-attackPerf/basePerf), victims[1].DRFMabs)
	return nil
}

// AttackTraces builds the per-core traces of an audited attack run. Core 0
// hammers sub-channel 0, bank 5 for acts accesses: the two neighbours of
// victim row 4000 (kind "double-sided"), or security.MINTWindow(trh) rows
// two apart from row 8000 (kind "circular", the MINT-stressing pattern).
// Every other core runs the victims workload with acts/cores accesses, or
// sits idle when victims is empty. The traces are explicit, so attack runs
// stay outside the run cache.
func AttackTraces(kind string, trh int, acts uint64, cores int, victims string, seed uint64) ([]cpu.Trace, error) {
	mapper, err := addrmap.NewMOP4(addrmap.Default())
	if err != nil {
		return nil, err
	}
	var atk *workload.Attack
	switch kind {
	case "double-sided":
		atk, err = workload.DoubleSided(mapper, 0, 5, 4000, acts)
	case "circular":
		atk, err = workload.Circular(mapper, 0, 5, 8000, security.MINTWindow(trh), acts)
	default:
		err = fmt.Errorf("exp: unknown attack kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	traces := make([]cpu.Trace, cores)
	traces[0] = atk
	if victims == "" {
		for i := 1; i < cores; i++ {
			traces[i] = workload.IdleTrace{}
		}
		return traces, nil
	}
	p, err := workload.ByName(victims)
	if err != nil {
		return nil, err
	}
	for i := 1; i < cores; i++ {
		if traces[i], err = workload.New(p, acts/uint64(cores), i, seed); err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// Security audits every scheme against the classic attack patterns and
// reports the maximum victim damage observed; security.Breached judges it.
func Security(o Options) error {
	trh := 2000
	acc := o.accesses() * 4
	schemes := []Scheme{
		PARAWith(tracker.ModeDRFMsb),
		MINTWith(tracker.ModeDRFMsb),
		DreamRPARA(true),
		DreamRMINT(true, false),
		DreamRMINT(true, true),
		GrapheneWith(tracker.ModeDRFMsb),
		DreamC(dreamcore.GroupRandomized, 1, false),
	}
	attacks := []struct{ name, kind string }{
		{"double-sided", "double-sided"},
		{"circular-W", "circular"},
	}
	t := stats.Table{Title: fmt.Sprintf("Security audit (T_RH=%d, attacker with flush: tiny LLC)", trh),
		Columns: []string{"scheme", "attack", "max victim ACTs", "max aggressor ACTs", "mitigations", "breached"}}
	for _, sc := range schemes {
		for _, atk := range attacks {
			traces, err := AttackTraces(atk.kind, trh, acc, 8, "", o.seed())
			if err != nil {
				return err
			}
			r, err := Run(RunConfig{
				Workload: atk.name, Cores: 8, AccessesPerCore: acc, TRH: trh,
				Scheme: sc, Seed: o.seed(), WindowScale: 1,
				Audit: true, SmallLLC: true, Traces: traces,
			})
			if err != nil {
				return err
			}
			breached := "no"
			if security.Breached(r.MaxVictim, trh) {
				breached = "YES"
			}
			t.AddRow(sc.Name, atk.name,
				fmt.Sprintf("%d", r.MaxVictim), fmt.Sprintf("%d", r.MaxAggressor),
				fmt.Sprintf("%d", r.Mitigations), breached)
		}
	}
	fmt.Fprintln(o.out(), t.String())
	return nil
}

// AblationPagePolicy sweeps the MOP close-after-N page-policy cap: one
// baseline campaign cell per (workload, cap), workload-major.
func AblationPagePolicy(o Options) error {
	wls := o.workloads()
	caps := []int{1, 4, 16}
	t := stats.Table{Title: "Ablation: page policy (baseline IPC sum by MOP cap)",
		Columns: []string{"workload", "cap=1 (closed)", "cap=4 (MOP)", "cap=16 (open)"}}
	var cells []CampaignCell
	for _, c := range PlanGridBase(wls, 2000, 8, o.accesses(), o.seed()) {
		for _, mop := range caps {
			c.MOPCap = mop
			cells = append(cells, c)
		}
	}
	results := o.executor().ExecCells(context.Background(), cells)
	for i, wl := range wls {
		row := []string{wl}
		for _, r := range results[i*len(caps) : (i+1)*len(caps)] {
			if r.Err != nil {
				return r.Err
			}
			row = append(row, fmt.Sprintf("%.2f", r.Res.IPCSum()))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(o.out(), t.String())
	return nil
}
