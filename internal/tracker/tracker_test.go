package tracker

import (
	"testing"
	"testing/quick"

	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
)

// TestPARAProb: a PARA tracker built from the analysis' p = 20/T_RH runs
// with 1/100 at T_RH 2000.
func TestPARAProb(t *testing.T) {
	tr, err := NewPARA(security.PARAProb(2000), ModeDRFMsb, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.p != 0.01 {
		t.Errorf("PARA p at T_RH 2000 = %v, want 1/100", tr.p)
	}
}

func TestPARASelectionRate(t *testing.T) {
	tr, err := NewPARA(0.01, ModeDRFMsb, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500_000
	for i := 0; i < n; i++ {
		tr.OnActivate(0, i%32, uint32(i))
	}
	rate := float64(tr.Selections) / n
	if rate < 0.009 || rate > 0.011 {
		t.Errorf("selection rate = %v, want ~0.01", rate)
	}
}

func TestPARADecisionShape(t *testing.T) {
	tr, err := NewPARA(1.0, ModeDRFMsb, sim.NewRNG(1)) // always select
	if err != nil {
		t.Fatal(err)
	}
	d := tr.OnActivate(0, 3, 99)
	if !d.Sample || !d.CloseNow || len(d.PostOps) != 1 || d.PostOps[0].Kind != memctrl.OpDRFMsb {
		t.Errorf("coupled PARA decision = %+v", d)
	}
	trN, err := NewPARA(1.0, ModeNRR, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	d = trN.OnActivate(0, 3, 99)
	if d.Sample || len(d.PostOps) != 1 || d.PostOps[0].Kind != memctrl.OpNRR || d.PostOps[0].Row != 99 {
		t.Errorf("NRR PARA decision = %+v", d)
	}
	trA, err := NewPARA(1.0, ModeDRFMab, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := trA.OnActivate(0, 3, 99); d.PostOps[0].Kind != memctrl.OpDRFMab {
		t.Errorf("DRFMab decision = %+v", d)
	}
}

func TestPARAValidation(t *testing.T) {
	if _, err := NewPARA(0, ModeNRR, sim.NewRNG(1)); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := NewPARA(0.5, ModeNRR, nil); err == nil {
		t.Error("nil RNG should fail")
	}
}

// TestMINTWindowDerivation: a MINT tracker built from the analysis'
// W = T_RH/20 runs with a 100-activation window at T_RH 2000.
func TestMINTWindowDerivation(t *testing.T) {
	tr, err := NewMINT(security.MINTWindow(2000), 32, ModeDRFMsb, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if tr.w != 100 {
		t.Errorf("MINT window at T_RH 2000 = %d, want 100", tr.w)
	}
}

// TestMINTOneSelectionPerWindow: MINT must mitigate exactly once per W
// activations per bank, at the window boundary.
func TestMINTOneSelectionPerWindow(t *testing.T) {
	const w, windows = 50, 100
	tr, err := NewMINT(w, 32, ModeDRFMsb, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	mitigations := 0
	for i := 0; i < w*windows; i++ {
		d := tr.OnActivate(0, 7, uint32(i))
		if len(d.PostOps) > 0 {
			mitigations++
			if i%w != w-1 {
				t.Fatalf("mitigation away from the window boundary at activation %d", i)
			}
			if !d.CloseNow {
				t.Fatal("window mitigation must close the row")
			}
			if d.PostOps[0].Kind != memctrl.OpExplicitSample || d.PostOps[1].Kind != memctrl.OpDRFMsb {
				t.Fatalf("ops = %+v", d.PostOps)
			}
		}
	}
	if mitigations != windows {
		t.Errorf("mitigations = %d, want %d", mitigations, windows)
	}
}

// TestMINTSelectionUniform: the selected position must be uniform over the
// window (URAND), checked with a chi-squared-ish bound.
func TestMINTSelectionUniform(t *testing.T) {
	const w = 10
	tr, err := NewMINT(w, 1, ModeNRR, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, w)
	const windows = 20000
	for wi := 0; wi < windows; wi++ {
		for i := 0; i < w; i++ {
			d := tr.OnActivate(0, 0, uint32(i))
			if len(d.PostOps) > 0 {
				// Mitigated row identifies this window's selection slot.
				counts[d.PostOps[0].Row]++
			}
		}
	}
	for slot, n := range counts {
		frac := float64(n) / float64(windows)
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("slot %d selected %.3f of windows, want ~0.1", slot, frac)
		}
	}
}

func TestMINTPerBankWindows(t *testing.T) {
	tr, err := NewMINT(10, 4, ModeNRR, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// Drive only bank 2; other banks' windows must not advance.
	for i := 0; i < 105; i++ {
		tr.OnActivate(0, 2, uint32(i))
	}
	if tr.banks[0].can != 0 || tr.banks[2].can != 5 {
		t.Errorf("windows are not per-bank: bank0.can=%d bank2.can=%d",
			tr.banks[0].can, tr.banks[2].can)
	}
}

// TestGrapheneEntries: Graphene sizes its per-bank table as Table 1 does.
func TestGrapheneEntries(t *testing.T) {
	for _, c := range []struct{ trh, want int }{{250, 4800}, {500, 2400}, {1000, 1200}} {
		g, err := NewGraphene(GrapheneConfig{TRH: c.trh, Banks: 1, Mode: ModeNRR})
		if err != nil {
			t.Fatal(err)
		}
		if g.entries != c.want {
			t.Errorf("Graphene entries at T_RH %d = %d, want %d", c.trh, g.entries, c.want)
		}
	}
}

func TestGrapheneThresholdTriggers(t *testing.T) {
	g, err := NewGraphene(GrapheneConfig{TRH: 1000, Banks: 32, Mode: ModeNRR})
	if err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 1000; i++ {
		d := g.OnActivate(0, 0, 7)
		if len(d.PostOps) > 0 {
			fired++
			if i != 499 && i != 999 {
				t.Errorf("mitigation at activation %d, want at 499 and 999 (T_TH=500)", i)
			}
		}
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

// TestGrapheneSpaceSavingGuarantee: any row activated more than
// ACTs/entries times must be resident with an estimate >= its true count
// (the Misra–Gries property Graphene's security rests on).
func TestGrapheneSpaceSavingGuarantee(t *testing.T) {
	g, err := NewGraphene(GrapheneConfig{TRH: 100_000, Banks: 1, Mode: ModeNRR})
	if err != nil {
		t.Fatal(err)
	}
	k := g.entries
	f := func(seed uint64) bool {
		g.banks[0].clear()
		rng := sim.NewRNG(seed)
		truth := map[uint32]uint32{}
		total := 0
		// A skewed stream: some heavy rows, lots of noise.
		for i := 0; i < 4*k; i++ {
			var row uint32
			if rng.Bernoulli(0.3) {
				row = uint32(rng.Intn(3)) // heavy hitters
			} else {
				row = 100 + uint32(rng.Intn(100000))
			}
			g.banks[0].touch(row)
			truth[row]++
			total++
		}
		for row, n := range truth {
			if int(n) > total/k {
				if got := g.Count(0, row); got < n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestGrapheneReset(t *testing.T) {
	g, err := NewGraphene(GrapheneConfig{TRH: 1000, Banks: 2, Mode: ModeNRR, ResetPeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	g.OnActivate(0, 0, 7)
	if !g.Resident(0, 7) {
		t.Fatal("row not resident")
	}
	g.OnRefresh(0, 4)
	if g.Resident(0, 7) {
		t.Error("table must reset at the window boundary")
	}
}

func TestABACuSSAVFiltering(t *testing.T) {
	a, err := NewABACuS(ABACuSConfig{TRH: 1000, Banks: 32, Rows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// The streaming pattern: same RowID once per bank — RAC must stay 0.
	for b := 0; b < 32; b++ {
		a.OnActivate(0, b, 5)
	}
	if a.RAC(5) != 0 {
		t.Errorf("RAC = %d after one sibling sweep, want 0 (SAV filters)", a.RAC(5))
	}
	// A second activation of bank 0 increments and resets the SAV.
	a.OnActivate(0, 0, 5)
	if a.RAC(5) != 1 {
		t.Errorf("RAC = %d, want 1", a.RAC(5))
	}
	if a.SAV(5) != 1 {
		t.Errorf("SAV = %b, want just bank 0", a.SAV(5))
	}
}

func TestABACuSThresholdMitigatesAllBanks(t *testing.T) {
	a, err := NewABACuS(ABACuSConfig{TRH: 20, Banks: 32, Rows: 64})
	if err != nil {
		t.Fatal(err)
	}
	var gang memctrl.Decision
	for i := 0; ; i++ {
		d := a.OnActivate(0, 0, 9)
		if len(d.PreOps) > 0 {
			gang = d
			break
		}
		if i > 100 {
			t.Fatal("threshold never crossed")
		}
	}
	op := gang.PreOps[0]
	if op.Kind != memctrl.OpGangMitigate || len(op.GangRows) != 1 || len(op.GangRows[0]) != 32 {
		t.Fatalf("op = %+v", op)
	}
	for _, r := range op.GangRows[0] {
		if r != 9 {
			t.Fatalf("gang row = %d, want 9 in every bank", r)
		}
	}
	if a.RAC(9) != 0 {
		t.Error("RAC must reset after mitigation")
	}
}

func TestMOATABO(t *testing.T) {
	m, err := NewMOAT(MOATConfig{TRH: 100})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 100; i++ {
		d := m.OnActivate(0, 3, 77)
		if len(d.PreOps) > 0 {
			fired++
			if d.PreOps[0].Kind != memctrl.OpStallAll {
				t.Errorf("first op = %+v, want StallAll (ABO)", d.PreOps[0])
			}
			if i != 49 && i != 99 {
				t.Errorf("ABO at activation %d, want 49/99 (ETH=50)", i)
			}
		}
	}
	if fired != 2 || m.ABOs != 2 {
		t.Errorf("ABOs = %d, want 2", m.ABOs)
	}
}

func TestStorageAccounting(t *testing.T) {
	g, err := NewGraphene(GrapheneConfig{TRH: 1000, Banks: 32, Mode: ModeNRR})
	if err != nil {
		t.Fatal(err)
	}
	kbPerBank := float64(g.StorageBits()) / 8 / 1024 / 32
	if kbPerBank < 3.5 || kbPerBank > 4.5 {
		t.Errorf("Graphene storage = %.2f KB/bank, want ~4.1 (Table 1)", kbPerBank)
	}
	a, err := NewABACuS(ABACuSConfig{TRH: 125, Banks: 32, Rows: 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	kbPerBank = float64(a.StorageBits()) / 8 / 1024 / 32
	if kbPerBank < 17 || kbPerBank > 21 {
		t.Errorf("ABACuS storage = %.2f KB/bank, want ~19 (§5.8)", kbPerBank)
	}
	m, _ := NewMOAT(MOATConfig{TRH: 1000})
	if m.StorageBits() != 0 {
		t.Error("MOAT keeps counters in DRAM, not SRAM")
	}
}

func TestModeString(t *testing.T) {
	if ModeNRR.String() != "NRR" || ModeDRFMsb.String() != "DRFMsb" || ModeDRFMab.String() != "DRFMab" {
		t.Error("mode strings wrong")
	}
}
