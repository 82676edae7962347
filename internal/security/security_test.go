package security

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPARAProbabilities(t *testing.T) {
	if p := PARAProb(2000); p != 0.01 {
		t.Errorf("PARAProb = %v", p)
	}
	// Table 4: DREAM-R/PARA without ATM runs at p′ = 1/85 at T_RH = 2000.
	if inv := 1 / RevisedPARAProbApprox(2000); inv < 84 || inv > 86 {
		t.Errorf("revised PARA p = 1/%.1f, want ~1/85", inv)
	}
	// Appendix A Equation 1: the Gamma tail at the coupled design point is
	// ~20x the exponential tail (1 + pT = 21 with pT = 20).
	exp := math.Exp(-20.0)
	gamma := DelayedPARAFailure(0.01, 2000)
	if ratio := gamma / exp; ratio < 20 || ratio > 22 {
		t.Errorf("gamma/exponential tail ratio = %v, want ~21", ratio)
	}
}

// TestRevisedPARARestoresBudget: the numerically solved p' must bring the
// delayed failure probability back to the e^-20 budget.
func TestRevisedPARARestoresBudget(t *testing.T) {
	for _, trh := range []int{500, 1000, 2000, 4000} {
		p := RevisedPARAProb(trh)
		fail := DelayedPARAFailure(p, trh)
		budget := math.Exp(-FailureBudget)
		if fail > budget*1.01 {
			t.Errorf("T_RH=%d: revised failure %v exceeds budget %v", trh, fail, budget)
		}
		// And the paper's closed form should be within ~3% of the solution.
		approx := RevisedPARAProbApprox(trh)
		if rel := math.Abs(approx-p) / p; rel > 0.03 {
			t.Errorf("T_RH=%d: closed form off by %.1f%%", trh, 100*rel)
		}
	}
}

func TestMINTWindows(t *testing.T) {
	if MINTWindow(2000) != 100 || MINTToleratedTRH(100) != 2000 {
		t.Error("MINT window relations broken")
	}
	if got := DelayedMINTToleratedTRH(100); got != 2050 {
		t.Errorf("delayed tolerated T_RH = %v, want 2050 (20.5 W)", got)
	}
	if RevisedMINTWindow(2000) != 97 {
		t.Error("revised window at 2K must be 97")
	}
	if ATMWindow(2000, 20) != 99 {
		t.Error("ATM window at 2K must be 99")
	}
	if inv := 1 / ATMProb(2000, 20); math.Abs(inv-99) > 1e-9 {
		t.Errorf("ATM p at 2K = 1/%v, want 1/99", inv)
	}
}

// TestBreachedLine pins the failure line at exactly 2·T_RH victim
// activations.
func TestBreachedLine(t *testing.T) {
	for _, trh := range []int{4, 125, 1000, 2000} {
		line := 2 * uint64(trh)
		if Breached(line-1, trh) {
			t.Errorf("T_RH %d: MaxVictim %d breached, want below the line", trh, line-1)
		}
		if !Breached(line, trh) {
			t.Errorf("T_RH %d: MaxVictim %d not breached, want on the line", trh, line)
		}
	}
}

// TestRMAQImpactMatchesTable7 pins the model to the paper's anchors.
func TestRMAQImpactMatchesTable7(t *testing.T) {
	paper := map[int]int{25: 36, 30: 25, 35: 14, 40: 2, 45: 0, 50: 0, 100: 0}
	for w, want := range paper {
		got := RMAQImpact(w)
		if diff := got - want; diff < -2 || diff > 2 {
			t.Errorf("RMAQImpact(%d) = %d, paper says %d", w, got, want)
		}
	}
}

func TestRMAQEntriesTable(t *testing.T) {
	// §6.1: W = 25/50/100 need 6/3/2 entries; huge windows floor at 2.
	for _, c := range []struct{ w, want int }{{25, 6}, {50, 3}, {100, 2}, {1000, 2}} {
		if got := RMAQEntries(c.w); got != c.want {
			t.Errorf("RMAQEntries(%d) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestGrapheneStorageTable1(t *testing.T) {
	// Table 1: 4800 / 2400 / 1200 entries and 15.2 / 7.9 / 4.1 KB per bank
	// (we land within 10%).
	entries := map[int]int{250: 4800, 500: 2400, 1000: 1200}
	paper := map[int]float64{250: 15.2, 500: 7.9, 1000: 4.1}
	for trh, want := range paper {
		if got := GrapheneEntries(trh); got != entries[trh] {
			t.Errorf("GrapheneEntries(%d) = %d, want %d", trh, got, entries[trh])
		}
		got := GrapheneKBPerBank(trh)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("Graphene(%d) = %.1f KB/bank, paper says %.1f", trh, got, want)
		}
	}
}

func TestDreamCStorageTable6(t *testing.T) {
	paper := map[int]float64{125: 3, 250: 1.75, 500: 1, 1000: 0.56}
	for trh, want := range paper {
		got := DreamCKBPerBank(trh, 1)
		if got < want*0.8 || got > want*1.35 {
			t.Errorf("DreamC(%d) = %.2f KB/bank, paper says %.2f", trh, got, want)
		}
	}
	// Gangs of 32·V rows, V = 1/2/4/8 DRFMab rounds.
	rows := DreamCTable6()
	if len(rows) != 4 {
		t.Fatalf("Table 6 rows = %+v", rows)
	}
	for i, v := range []int{1, 2, 4, 8} {
		if r := rows[i]; r.GangSize != 32*v || r.NumDRFMab != v {
			t.Errorf("Table 6 row %+v, want gang %d and %d DRFMab", r, 32*v, v)
		}
	}
	// The headline: ~8x lower than Graphene at 500.
	ratio, err := StorageRatio(GrapheneKBPerBank(500), DreamCKBPerBank(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 5 || ratio > 10 {
		t.Errorf("Graphene/DreamC at 500 = %.1fx, paper says ~7.9x", ratio)
	}
}

func TestABACuSStorage(t *testing.T) {
	got := ABACuSKBPerBank(125)
	if got < 17 || got > 21 {
		t.Errorf("ABACuS at 125 = %.1f KB/bank, paper says 19", got)
	}
	ratio, _ := StorageRatio(got, DreamCKBPerBank(125, 1))
	if ratio < 4.5 || ratio > 7.5 {
		t.Errorf("ABACuS/DreamC = %.1fx, paper says 6.33x", ratio)
	}
}

func TestSmallStructureCosts(t *testing.T) {
	if b := ATMBytesPerBank(); b < 2 || b > 4 {
		t.Errorf("ATM = %.1f bytes/bank, paper says ~3", b)
	}
	if b := RMAQBytesPerBank(25); b < 5 || b > 16 {
		t.Errorf("RMAQ(25) = %.1f bytes/bank, paper says 5-15", b)
	}
}

func TestDoSAnalysis(t *testing.T) {
	// §5.5: tRC + 62 tBUS ≈ 213 ns; with 411 ns blockage the worst-case
	// slowdown is ~3x.
	attack, block := DoSRoundNS(62, sim.NS(46), sim.NS(64.0/24.0), 411)
	if attack < 210 || attack > 216 {
		t.Errorf("attack round = %.1f ns, paper says 213", attack)
	}
	f := DoSThroughputFactor(attack, block)
	if f < 2.8 || f > 3.1 {
		t.Errorf("DoS factor = %.2f, paper says ~3x", f)
	}
	if !math.IsInf(DoSThroughputFactor(0, 1), 1) {
		t.Error("zero attack time must give +Inf")
	}
}

// TestInterSelectionDistributions checks the Figure-11 shapes: PARA's
// distances are exponential (mean ~1/p, many short gaps); MINT's are
// triangular around W (few short gaps).
func TestInterSelectionDistributions(t *testing.T) {
	para := InterSelectionPARA(0.01, 16, 100_000, 1)
	mint := InterSelectionMINT(100, 16, 100_000, 1)
	meanOf := func(d []int) float64 {
		var s float64
		for _, x := range d {
			s += float64(x)
		}
		return s / float64(len(d))
	}
	pd, md := para.Distances(), mint.Distances()
	if m := meanOf(pd); m < 90 || m > 110 {
		t.Errorf("PARA mean distance = %v, want ~100", m)
	}
	if m := meanOf(md); m < 95 || m > 105 {
		t.Errorf("MINT mean distance = %v, want ~100", m)
	}
	ps := ShortGapFraction(pd, 50)
	ms := ShortGapFraction(md, 50)
	// Exponential: P(<50) = 1-e^-0.5 ~ 39%. Triangular: P(<50) = 12.5%.
	if ps < 0.35 || ps > 0.44 {
		t.Errorf("PARA short-gap fraction = %v, want ~0.39", ps)
	}
	if ms < 0.10 || ms > 0.16 {
		t.Errorf("MINT short-gap fraction = %v, want ~0.125", ms)
	}
	if ps < 2*ms {
		t.Errorf("PARA (%.2f) must have far more short gaps than MINT (%.2f)", ps, ms)
	}
	// MINT distances are bounded by 2W.
	for _, d := range md {
		if d >= 200 {
			t.Fatalf("MINT distance %d >= 2W", d)
		}
	}
}

func TestDistanceHistogram(t *testing.T) {
	h := DistanceHistogram([]int{0, 10, 30, 99, 250}, 100, 10)
	if h[0] != 1 || h[1] != 1 || h[3] != 1 || h[9] != 2 {
		t.Errorf("histogram = %v", h)
	}
	if ShortGapFraction(nil, 10) != 0 {
		t.Error("empty distances must give 0")
	}
}

// TestMonteCarloDeterminism: same seed, same selections (property).
func TestMonteCarloDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a := InterSelectionPARA(0.01, 2, 1000, seed)
		b := InterSelectionPARA(0.01, 2, 1000, seed)
		if len(a.Selections) != len(b.Selections) {
			return false
		}
		for i := range a.Selections {
			if len(a.Selections[i]) != len(b.Selections[i]) {
				return false
			}
			for j := range a.Selections[i] {
				if a.Selections[i][j] != b.Selections[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
