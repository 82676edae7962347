package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options controls how experiments run.
type Options struct {
	// Quick shrinks runs (fewer accesses, workload subset) for benches and
	// CI; Full reproduces the complete figures.
	Quick bool
	Seed  uint64
	Out   io.Writer
	// Workloads overrides the workload list.
	Workloads []string
	// Executor, when non-nil, routes grid campaign cells through an
	// alternative execution backend (dreamctl's sharded fan-out across dreamd
	// endpoints); nil executes in-process on the shared worker pool.
	Executor Executor
	// ExtraSchemes appends registered scheme names as extra comparison
	// columns to experiments that support it (postdream); unknown names are
	// an error. This is how user-registered trackers join the figures.
	ExtraSchemes []string
}

func (o Options) out() io.Writer { return o.Out }

func (o Options) executor() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return localExecutor{}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 0xd6ea11
	}
	return o.Seed
}

// quickSubset is the representative workload slice used in Quick mode: two
// SPEC streaming, one SPEC irregular, the two set-associative-grouping
// pathologies (lbm, parest), one GAP, one STREAM.
var quickSubset = []string{"bwaves", "lbm", "mcf", "parest", "tc", "triad"}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	if o.Quick {
		return quickSubset
	}
	return workload.Names()
}

// accesses returns the per-core trace length.
func (o Options) accesses() uint64 {
	if o.Quick {
		return 40_000
	}
	return 150_000
}

// counterAccesses returns the longer per-core trace length used by
// counter-tracker experiments (DREAM-C, ABACuS): their scaled thresholds
// need enough simulated time to stay clear of small-count noise.
func (o Options) counterAccesses() uint64 {
	if o.Quick {
		return 160_000
	}
	return 600_000
}

// windowScale returns the default simulated fraction of tREFW used to
// scale counter-tracker thresholds when no base measurement is available
// (direct Run calls); grid experiments derive it per workload from the
// measured baseline simulation time instead.
func (o Options) windowScale() float64 {
	if o.Quick {
		return 1.0 / 32
	}
	return 1.0 / 16
}

// scaleFromBase converts a baseline run's simulated time into the
// WindowScale for scheme runs on the same traces: counter thresholds are
// budgets per 32 ms refresh window, so a run covering simTime of the window
// uses simTime/tREFW of each budget (clamped to [1/128, 1]).
func scaleFromBase(simTimeNS float64) float64 {
	s := simTimeNS / 32e6
	if s > 1 {
		return 1
	}
	if s < 1.0/128 {
		return 1.0 / 128
	}
	return s
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID   string
	Desc string
	Run  func(o Options) error
}

// Registry lists every experiment, in paper order.
var Registry = []Experiment{
	{"fig5", "PARA & MINT slowdown with NRR/DRFMsb/DRFMab at T_RH=2K (motivation)", Fig5},
	{"table1", "Graphene storage vs threshold (analytic)", Table1},
	{"table3", "Workload characterisation (MPKI, ACTs/row, BW util)", Table3},
	{"table4", "Revised tracker parameters under DREAM-R (analytic)", Table4},
	{"table5", "Average RLP: coupled DRFMsb vs DREAM-R", Table5},
	{"fig9", "PARA & MINT slowdown: NRR vs DRFMsb vs DREAM-R at T_RH=2K", Fig9},
	{"fig10", "DREAM-R sensitivity to T_RH (0.5K-4K)", Fig10},
	{"fig11", "Inter-selection distance Monte Carlo: PARA vs MINT", Fig11},
	{"fig15top", "DREAM-C set-associative vs randomized grouping at T_RH=500", Fig15Top},
	{"fig15bot", "DREAM-C randomized grouping sensitivity (T_RH 250/500/1000)", Fig15Bot},
	{"table6", "DREAM-C configurations and storage vs Graphene (analytic)", Table6},
	{"table7", "DREAM-R tolerated T_RH with/without the DRFM rate limit (analytic)", Table7},
	{"fig17", "ABACuS vs DREAM-C vs DREAM-C(2x) at T_RH=125", Fig17},
	{"fig19", "PRAC (MOAT) vs MINT(DREAM-R) vs DREAM-C across T_RH", Fig19},
	{"fig22", "DREAM-C with 16 cores; DREAM-C(2x) (Appendix C)", Fig22},
	{"fig23", "Mixed workloads: MOAT vs DREAM-R vs DREAM-C (Appendix D)", Fig23},
	{"dos", "DREAM-C worst-case DoS throughput analysis (§5.5)", DoS},
	{"security", "Attack audit: max unmitigated activations per scheme", Security},
	{"ablation-delay", "Ablation: coupled vs delayed DRFM (the RLP mechanism)", AblationDelay},
	{"ablation-atm", "Ablation: DREAM-R revised-parameters vs ATM", AblationATM},
	{"ablation-grouping", "Ablation: DCT grouping functions and entry multipliers", AblationGrouping},
	{"ablation-pagepolicy", "Ablation: MOP close-after-N page policy", AblationPagePolicy},
	{"ablation-drfmkind", "Ablation: DREAM-R over DRFMsb vs DRFMab", AblationDRFMKind},
	{"postdream", "Post-DREAM trackers (DAPPER, QPRAC, prob policies) vs DREAM at equal storage", PostDream},
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (see Registry)", id)
}

// slowdownGrid runs base plus each scheme for each workload with the
// default per-core trace length and returns slowdowns[workload][scheme].
func slowdownGrid(o Options, wls []string, trh int, cores int, schemes []Scheme) (map[string]map[string]float64, map[string]map[string]stats.RunResult, error) {
	return slowdownGridN(o, wls, trh, cores, schemes, o.accesses())
}

// slowdownGridN is slowdownGrid with an explicit per-core trace length: the
// one-threshold case of slowdownSweep.
func slowdownGridN(o Options, wls []string, trh int, cores int, schemes []Scheme, accesses uint64) (map[string]map[string]float64, map[string]map[string]stats.RunResult, error) {
	r := slowdownSweep(o, wls, []int{trh}, cores, schemes, accesses)[0]
	return r.slow, r.raw, r.err
}

// sweepRow is one threshold of a slowdown sweep: slow[workload][scheme], the
// raw results behind it (each workload's baseline under "base"), and the
// joined failures of that threshold's cells.
type sweepRow struct {
	trh  int
	slow map[string]map[string]float64
	raw  map[string]map[string]stats.RunResult
	err  error
}

// slowdownSweep runs base plus each scheme for each workload at every
// threshold in trhs and returns one row per threshold, in trhs order.
//
// The sweep is a two-wave campaign however many thresholds it spans: every
// threshold's baselines, then every threshold's scheme cells, each stamped
// with the counter-threshold WindowScale its workload's measured baseline
// implies. Both waves go through the Options executor (in-process or across
// dreamd shards). Cells are planned threshold-major by PlanGridBase and
// PlanGridSchemes: exactly the cells of one grid per threshold.
//
// The sweep degrades instead of aborting: failed and skipped cells are NaN
// in slow (FAIL in stats.Pct), a workload whose baseline failed fails its
// whole row at that threshold, and each row's err joins that threshold's
// failures. The in-process executor cancels a wave's unclaimed cells on its
// first failure, so one failure can skip cells of every threshold, not just
// its own. Callers should render what survived, then propagate the errors.
func slowdownSweep(o Options, wls []string, trhs []int, cores int, schemes []Scheme, accesses uint64) []sweepRow {
	names := schemeNames(schemes)
	rows := make([]sweepRow, len(trhs))
	fails := make([][]error, len(trhs))
	byTRH := make(map[int]int, len(trhs))
	var baseCells []CampaignCell
	for k, trh := range trhs {
		rows[k] = sweepRow{trh: trh,
			slow: make(map[string]map[string]float64), raw: make(map[string]map[string]stats.RunResult)}
		for _, wl := range wls {
			rows[k].slow[wl] = make(map[string]float64)
			rows[k].raw[wl] = make(map[string]stats.RunResult)
		}
		byTRH[trh] = k
		baseCells = append(baseCells, PlanGridBase(wls, trh, cores, accesses, o.seed())...)
	}
	fail := func(k int, err error) {
		if !errors.Is(err, harness.ErrSkipped) {
			fails[k] = append(fails[k], err)
		}
	}

	ctx := context.Background()
	ex := o.executor()
	baseRes := ex.ExecCells(ctx, baseCells)
	var cells []CampaignCell
	for k, r := range rows {
		var good []string
		for j, wl := range wls {
			if res := baseRes[k*len(wls)+j]; res.Err != nil {
				for _, n := range names {
					r.slow[wl][n] = math.NaN()
				}
				fail(k, res.Err)
			} else {
				r.raw[wl]["base"] = res.Res
				good = append(good, wl)
			}
		}
		cells = append(cells, PlanGridSchemes(good, names, r.trh, cores, accesses, o.seed(),
			func(wl string) uint64 { return math.Float64bits(scaleFromBase(r.raw[wl]["base"].SimTimeNS)) })...)
	}

	results := ex.ExecCells(ctx, cells)
	for i, c := range cells {
		k := byTRH[c.TRH]
		r := rows[k]
		if err := results[i].Err; err != nil {
			r.slow[c.Workload][c.Scheme] = math.NaN()
			fail(k, err)
			continue
		}
		r.raw[c.Workload][c.Scheme] = results[i].Res
		r.slow[c.Workload][c.Scheme] = stats.Slowdown(r.raw[c.Workload]["base"], results[i].Res)
	}
	for k := range rows {
		rows[k].err = errors.Join(fails[k]...)
	}
	return rows
}

// averageTable renders a sweep with one row per threshold: T_RH, then each
// scheme's workload-average slowdown in names order (FAIL where no workload
// survived), under the given column headers. It returns the rows' joined
// errors.
func averageTable(title string, headers []string, wls []string, names []string, rows []sweepRow) (stats.Table, error) {
	t := stats.Table{Title: title, Columns: append([]string{"T_RH"}, headers...)}
	var errs []error
	for _, r := range rows {
		avg := averageBy(wls, names, r.slow)
		cells := []string{fmt.Sprintf("%d", r.trh)}
		for _, n := range names {
			cells = append(cells, stats.Pct(avg[n]))
		}
		t.AddRow(cells...)
		errs = append(errs, r.err)
	}
	return t, errors.Join(errs...)
}

// printSlowdownTable renders a per-workload slowdown table plus the average
// row, with scheme columns in the given order. Failed cells (NaN, see
// slowdownSweep) render as FAIL and are excluded from the average, so a
// degraded grid still yields a readable figure.
func printSlowdownTable(w io.Writer, title string, wls []string, schemeNames []string, slow map[string]map[string]float64) {
	t := stats.Table{Title: title, Columns: append([]string{"workload"}, schemeNames...)}
	for _, wl := range wls {
		row := []string{wl}
		for _, s := range schemeNames {
			row = append(row, stats.Pct(slow[wl][s]))
		}
		t.AddRow(row...)
	}
	avg := averageBy(wls, schemeNames, slow)
	row := []string{"AVERAGE"}
	for _, s := range schemeNames {
		row = append(row, stats.Pct(avg[s]))
	}
	t.AddRow(row...)
	fmt.Fprintln(w, t.String())
}

// schemeNames extracts names preserving order.
func schemeNames(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name
	}
	return out
}

// averageBy computes per-scheme averages over workloads, skipping failed
// (NaN) cells; a scheme with no surviving cells averages to NaN (FAIL).
func averageBy(wls []string, names []string, slow map[string]map[string]float64) map[string]float64 {
	avg := make(map[string]float64)
	cnt := make(map[string]int)
	for _, wl := range wls {
		for _, s := range names {
			if v := slow[wl][s]; !math.IsNaN(v) {
				avg[s] += v
				cnt[s]++
			}
		}
	}
	for _, s := range names {
		if cnt[s] == 0 {
			avg[s] = math.NaN()
			continue
		}
		avg[s] /= float64(cnt[s])
	}
	return avg
}
