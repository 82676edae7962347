package exp

// Integration tests: end-to-end runs asserting the paper's qualitative
// results (DESIGN.md §6). These use small traces; the quantitative
// reproduction lives in cmd/experiments and EXPERIMENTS.md.

import (
	"testing"

	"repro/internal/addrmap"
	dreamcore "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/tracker"
	"repro/internal/workload"
)

func run1(t *testing.T, wl string, trh int, sc Scheme, scale float64) stats.RunResult {
	t.Helper()
	r, err := Run(RunConfig{
		Workload: wl, Cores: 8, AccessesPerCore: 25_000, TRH: trh,
		Scheme: sc, Seed: 0xfeed, WindowScale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDreamRImprovesRLP: the paper's Table 5 ordering — DREAM-R must raise
// RLP well above the coupled designs' ~1 and cut the DRFM count.
func TestDreamRImprovesRLP(t *testing.T) {
	coupled := run1(t, "mcf", 2000, MINTWith(tracker.ModeDRFMsb), 1)
	dreamr := run1(t, "mcf", 2000, DreamRMINT(true, false), 1)
	if coupled.RLP > 1.2 {
		t.Errorf("coupled MINT RLP = %.2f, expected ~1", coupled.RLP)
	}
	if dreamr.RLP < 5 {
		t.Errorf("DREAM-R MINT RLP = %.2f, expected > 5 (paper: 7.55)", dreamr.RLP)
	}
	if dreamr.DRFMsbs*3 > coupled.DRFMsbs {
		t.Errorf("DREAM-R DRFMs = %d vs coupled %d; expected >3x reduction",
			dreamr.DRFMsbs, coupled.DRFMsbs)
	}
	if dreamr.IPCSum() <= coupled.IPCSum() {
		t.Errorf("DREAM-R IPC %.3f not better than coupled %.3f",
			dreamr.IPCSum(), coupled.IPCSum())
	}
}

// TestDreamRPARAOrdering: PARA's RLP under DREAM-R sits between coupled
// (~1) and MINT's (§4.7: IID re-selections force earlier flushes).
func TestDreamRPARAOrdering(t *testing.T) {
	para := run1(t, "mcf", 2000, DreamRPARA(true), 1)
	mint := run1(t, "mcf", 2000, DreamRMINT(true, false), 1)
	if para.RLP < 1.5 {
		t.Errorf("DREAM-R PARA RLP = %.2f, expected > 1.5 (paper: 3.23)", para.RLP)
	}
	if mint.RLP <= para.RLP {
		t.Errorf("MINT RLP (%.2f) must beat PARA RLP (%.2f) under DREAM-R",
			mint.RLP, para.RLP)
	}
}

// TestGroupingOrdering: Figure 15 — set-associative grouping must hurt a
// hot-page workload far more than randomized grouping.
func TestGroupingOrdering(t *testing.T) {
	base := run1(t, "parest", 500, Baseline, 1)
	scale := scaleFromBase(base.SimTimeNS)
	setassoc := run1(t, "parest", 500, DreamC(dreamcore.GroupSetAssociative, 1, false), scale)
	random := run1(t, "parest", 500, DreamC(dreamcore.GroupRandomized, 1, false), scale)
	sdSet := stats.Slowdown(base, setassoc)
	sdRand := stats.Slowdown(base, random)
	if sdSet < 1.5*sdRand {
		t.Errorf("set-assoc slowdown %.1f%% should far exceed randomized %.1f%%",
			100*sdSet, 100*sdRand)
	}
	if setassoc.DRFMabs < 2*random.DRFMabs {
		t.Errorf("set-assoc DRFMab %d vs randomized %d: hot counters must fire more",
			setassoc.DRFMabs, random.DRFMabs)
	}
}

// TestMOATIntrinsicDominates: Figure 19 — MOAT's slowdown is the PRAC
// timing tax and barely moves with T_RH.
func TestMOATIntrinsicDominates(t *testing.T) {
	base := run1(t, "mcf", 0, Baseline, 1)
	at500 := run1(t, "mcf", 500, MOAT(), 1)
	at4000 := run1(t, "mcf", 4000, MOAT(), 1)
	sd500 := stats.Slowdown(base, at500)
	sd4000 := stats.Slowdown(base, at4000)
	if sd500 < 0.02 {
		t.Errorf("MOAT slowdown %.1f%% too small; PRAC timings not applied?", 100*sd500)
	}
	if diff := sd500 - sd4000; diff > 0.03 || diff < -0.03 {
		t.Errorf("MOAT slowdown varies with T_RH: %.1f%% vs %.1f%%", 100*sd500, 100*sd4000)
	}
}

// TestDreamRKindAB: DREAM-R also works over DRFMab, reaching higher RLP at
// higher per-command cost.
func TestDreamRKindAB(t *testing.T) {
	sc := Scheme{
		Name: "mint-dreamr-ab",
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return dreamcore.NewDreamRMINT(dreamcore.DreamRMINTConfig{
				TRH: 2000, Banks: env.Banks, Kind: dreamcore.DRFMab, UseATM: true,
			}, env.RNG(sub))
		},
	}
	r := run1(t, "mcf", 2000, sc, 1)
	if r.DRFMabs == 0 {
		t.Fatal("no DRFMab issued")
	}
	if r.RLP < 10 {
		t.Errorf("DRFMab DREAM-R RLP = %.2f, expected > 10 (up to 32 DARs)", r.RLP)
	}
}

// TestRMAQAbuseAudited: the §6.2 abuse pattern gains bounded extra
// activations against RMAQ-enabled DREAM-R — the victim damage stays below
// the failure line (security.Breached).
func TestRMAQAbuseAudited(t *testing.T) {
	mapper, err := addrmap.NewMOP4(addrmap.Default())
	if err != nil {
		t.Fatal(err)
	}
	trh := 1000 // W = 49 with ATM
	atk, err := workload.RMAQAbuse(mapper, 0, 3, 5000, 49, 200)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]cpu.Trace, 8)
	traces[0] = atk
	for i := 1; i < 8; i++ {
		traces[i] = workload.IdleTrace{}
	}
	r, err := Run(RunConfig{
		Workload: "rmaq-abuse", Cores: 8, AccessesPerCore: 100_000, TRH: trh,
		Scheme: DreamRMINT(true, true), Seed: 1, WindowScale: 1,
		Audit: true, SmallLLC: true, Traces: traces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if security.Breached(r.MaxVictim, trh) {
		t.Errorf("RMAQ abuse breached: max victim %d at T_RH %d", r.MaxVictim, trh)
	}
	if r.Mitigations == 0 {
		t.Error("no mitigations under attack")
	}
}

// TestGrapheneZeroSlowdown: §2.8 — counter-based Graphene costs ~nothing in
// performance even with DRFM (its price is SRAM).
func TestGrapheneZeroSlowdown(t *testing.T) {
	base := run1(t, "bc", 1000, Baseline, 1)
	g := run1(t, "bc", 1000, GrapheneWith(tracker.ModeDRFMsb), 1)
	if sd := stats.Slowdown(base, g); sd > 0.02 {
		t.Errorf("Graphene slowdown %.2f%%, expected ~0", 100*sd)
	}
	// And the storage ordering vs DREAM-C (Table 6).
	dc := run1(t, "bc", 1000, DreamC(dreamcore.GroupRandomized, 1, false), 1.0/16)
	if g.StorageBits <= dc.StorageBits {
		t.Errorf("Graphene storage (%d bits) must exceed DREAM-C (%d bits)",
			g.StorageBits, dc.StorageBits)
	}
}

// TestStorageHeadlines: the paper's headline ratios measured from the
// instantiated trackers themselves.
func TestStorageHeadlines(t *testing.T) {
	env := Env{TRH: 500, Banks: 32, RowsPerBank: 128 * 1024, ResetPeriod: 8192,
		Seed: 1, ScaledTTH: func(u int) uint32 { return uint32(u) }}
	g, err := GrapheneWith(tracker.ModeDRFMsb).Build(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DreamC(dreamcore.GroupRandomized, 1, false).Build(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(g.StorageBits()) / float64(d.StorageBits())
	if ratio < 5 || ratio > 10 {
		t.Errorf("Graphene/DREAM-C storage ratio = %.1fx, paper says ~8x", ratio)
	}
}
