package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
)

// TestDreamRParametersMatchSecurity: at every threshold in [60, 8192], with
// ATM on and off, the p, W and RMAQ depth DREAM-R runs with are exactly the
// ones internal/security's analysis reports.
func TestDreamRParametersMatchSecurity(t *testing.T) {
	rng := sim.NewRNG(1)
	var bad []int
	for trh := 60; trh <= 8192; trh++ {
		ok := true
		for _, atm := range []bool{true, false} {
			p, err := NewDreamRPARA(DreamRPARAConfig{TRH: trh, Banks: 4, UseATM: atm}, rng)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewDreamRMINT(DreamRMINTConfig{TRH: trh, Banks: 4, UseATM: atm, UseRMAQ: true}, rng)
			if err != nil {
				t.Fatal(err)
			}
			wantP, wantW := security.RevisedPARAProbApprox(trh), security.RevisedMINTWindow(trh)
			if atm {
				wantP, wantW = security.ATMProb(trh, security.ATMTH), security.ATMWindow(trh, security.ATMTH)
			}
			if p.p != wantP || m.w != wantW || m.rmaq[0].size != security.RMAQEntries(wantW) {
				if len(bad) < 5 {
					t.Logf("T_RH %d atm=%v: p %v (want %v), W %d (want %d), RMAQ %d (want %d)",
						trh, atm, p.p, wantP, m.w, wantW, m.rmaq[0].size, security.RMAQEntries(wantW))
				}
				ok = false
			}
		}
		if !ok {
			bad = append(bad, trh)
		}
	}
	if len(bad) > 0 {
		t.Errorf("simulated DREAM-R parameters differ from security's at %d thresholds, first %v",
			len(bad), bad[:min(5, len(bad))])
	}
}

func TestDRFMKindSets(t *testing.T) {
	set := DRFMsb.sameSet(9, 32)
	want := []int{1, 5, 9, 13, 17, 21, 25, 29}
	for i := range want {
		if set[i] != want[i] {
			t.Fatalf("sameSet = %v, want %v", set, want)
		}
	}
	if len(DRFMab.sameSet(9, 32)) != 32 {
		t.Error("DRFMab set must cover all banks")
	}
	if DRFMsb.drfmOp(3).Kind != memctrl.OpDRFMsb || DRFMab.drfmOp(3).Kind != memctrl.OpDRFMab {
		t.Error("drfmOp kinds wrong")
	}
}

// --- DREAM-R / PARA (Listing 1) -------------------------------------------

func newDreamRPARA(t *testing.T, p float64) *DreamRPARA {
	t.Helper()
	d, err := NewDreamRPARA(DreamRPARAConfig{
		TRH: 2000, Banks: 32, UseATM: true, POverride: p,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDreamRPARAScenarios(t *testing.T) {
	d := newDreamRPARA(t, 1.0) // always select

	// Scenario 1: DAR empty — sample without DRFM.
	dec := d.OnActivate(0, 4, 100)
	if len(dec.PreOps) != 0 || !dec.Sample || dec.CloseNow {
		t.Fatalf("scenario 1 decision = %+v", dec)
	}
	// The controller commits the sample at the natural close.
	d.OnSampled(10, 4, 100)

	// Scenario 3: DAR valid — DRFM first, then sample.
	dec = d.OnActivate(20, 4, 200)
	if len(dec.PreOps) != 1 || dec.PreOps[0].Kind != memctrl.OpDRFMsb || !dec.Sample {
		t.Fatalf("scenario 3 decision = %+v", dec)
	}
	// The DRFM executes and reports the mitigation.
	d.OnMitigations(30, []dram.Mitigation{{Bank: 4, Row: 100}})
	if d.dar[4].valid {
		t.Error("mirror must clear on mitigation")
	}
}

func TestDreamRPARAScenario2(t *testing.T) {
	d := newDreamRPARA(t, 0.0) // never select
	dec := d.OnActivate(0, 4, 100)
	if len(dec.PreOps) != 0 && !dec.Sample {
		t.Fatalf("scenario 2 must be a plain activation: %+v", dec)
	}
}

func TestDreamRPARAATM(t *testing.T) {
	d := newDreamRPARA(t, 0.0)
	d.OnSampled(0, 7, 500) // row 500 awaits DRFM in bank 7's DAR
	var fired bool
	for i := 0; i < security.ATMTH; i++ {
		dec := d.OnActivate(Tick(i), 7, 500)
		if len(dec.PreOps) > 0 {
			fired = true
			if i != security.ATMTH-1 {
				t.Errorf("ATM fired at activation %d, want %d", i, security.ATMTH-1)
			}
			if dec.PreOps[0].Kind != memctrl.OpDRFMsb {
				t.Errorf("ATM op = %+v", dec.PreOps[0])
			}
		}
	}
	if !fired {
		t.Fatal("ATM never fired after ATM-TH activations of the sampled row")
	}
	if d.ATMTriggers() != 1 {
		t.Errorf("ATM triggers = %d", d.ATMTriggers())
	}
	// Activations of other rows must not count.
	d2 := newDreamRPARA(t, 0.0)
	d2.OnSampled(0, 7, 500)
	for i := 0; i < 100; i++ {
		if dec := d2.OnActivate(Tick(i), 7, 501); len(dec.PreOps) > 0 {
			t.Fatal("ATM fired for a different row")
		}
	}
}

func TestDreamRPARADerivedProbabilities(t *testing.T) {
	withATM, err := NewDreamRPARA(DreamRPARAConfig{TRH: 2000, Banks: 32, UseATM: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if 1/withATM.p < 98 || 1/withATM.p > 100 {
		t.Errorf("ATM p = 1/%.1f", 1/withATM.p)
	}
	noATM, err := NewDreamRPARA(DreamRPARAConfig{TRH: 2000, Banks: 32}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if 1/noATM.p < 84 || 1/noATM.p > 86 {
		t.Errorf("no-ATM p = 1/%.1f", 1/noATM.p)
	}
}

// --- DREAM-R / MINT (Listing 2) -------------------------------------------

func newDreamRMINT(t *testing.T, w int, rmaq bool) *DreamRMINT {
	t.Helper()
	d, err := NewDreamRMINT(DreamRMINTConfig{
		TRH: 2000, Banks: 32, UseATM: true, UseRMAQ: rmaq, WOverride: w,
	}, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDreamRMINTImplicitSampling: with a free DAR, the selection samples
// implicitly and no DRFM is issued mid-window.
func TestDreamRMINTImplicitSampling(t *testing.T) {
	const w = 10
	d := newDreamRMINT(t, w, false)
	sawSample := false
	for i := 0; i < w; i++ {
		dec := d.OnActivate(Tick(i), 0, uint32(1000+i))
		if len(dec.PreOps) > 0 {
			t.Fatalf("DRFM in the first window at %d: %+v", i, dec.PreOps)
		}
		if dec.Sample {
			sawSample = true
			d.OnSampled(Tick(i), 0, uint32(1000+i))
		}
	}
	if !sawSample {
		t.Fatal("no implicit sampling in the first window")
	}
	if !d.dar[0].valid {
		t.Fatal("mirror not updated")
	}
}

// TestDreamRMINTWindowFlush: a selection with a busy DAR goes to the
// MC-SAR, and the next window boundary issues DRFM + explicit samples for
// the whole set.
func TestDreamRMINTWindowFlush(t *testing.T) {
	const w = 10
	d := newDreamRMINT(t, w, false)
	// Make the DARs of banks 0 and 4 (same set) valid and their next
	// selections collide.
	d.OnSampled(0, 0, 111)
	d.OnSampled(0, 4, 222)
	// Drive bank 0 for a full window; every selection hits a busy DAR so
	// the MC-SAR fills, and the boundary flushes (as PostOps of the W-th
	// activation).
	var flushOps []memctrl.Op
	for i := 0; i < 2*w+1; i++ {
		dec := d.OnActivate(Tick(i), 0, uint32(3000+i))
		if len(dec.PostOps) > 0 {
			if !dec.CloseNow {
				t.Fatal("window flush must close the row")
			}
			flushOps = dec.PostOps
			break
		}
	}
	if flushOps == nil {
		t.Fatal("no window flush")
	}
	if flushOps[0].Kind != memctrl.OpDRFMsb {
		t.Fatalf("first op = %+v, want DRFMsb", flushOps[0])
	}
	// The explicit sample for bank 0's MC-SAR must follow.
	foundES := false
	for _, op := range flushOps[1:] {
		if op.Kind == memctrl.OpExplicitSample && op.Bank == 0 {
			foundES = true
		}
	}
	if !foundES {
		t.Fatalf("no explicit sample for bank 0: %+v", flushOps)
	}
}

func TestDreamRMINTRMAQBlocksResampling(t *testing.T) {
	const w = 10
	d := newDreamRMINT(t, w, true)
	// Force deterministic selection by hammering one row: whichever slot
	// is selected, the row is the same.
	row := uint32(42)
	for win := 0; win < 20; win++ {
		for i := 0; i < w; i++ {
			dec := d.OnActivate(Tick(win*w+i), 0, row)
			if dec.Sample {
				d.OnSampled(Tick(win*w+i), 0, row)
			}
		}
	}
	if d.RMAQSkips == 0 {
		t.Error("RMAQ never skipped a re-selection of the same row within 2 tREFI")
	}
	// After two tREFI epochs the row unblocks.
	skipsBefore := d.RMAQSkips
	d.OnRefresh(0, 0)
	d.OnRefresh(0, 1)
	d.OnRefresh(0, 2)
	blockedAfter := d.rmaq[0].Blocked(row)
	if blockedAfter {
		t.Error("RMAQ entry must expire after two tREFI")
	}
	_ = skipsBefore
}

func TestRMAQFIFO(t *testing.T) {
	q := NewRMAQ(2)
	q.Record(1)
	q.Record(2)
	if !q.Blocked(1) || !q.Blocked(2) {
		t.Error("recorded rows must block")
	}
	q.Record(3) // evicts row 1
	if q.Blocked(1) {
		t.Error("FIFO must evict the oldest entry")
	}
	q.Tick()
	q.Tick()
	if q.Blocked(2) || q.Blocked(3) {
		t.Error("entries older than 2 epochs must not block")
	}
}

// TestRMAQSizeForWindow: DREAM-R/MINT sizes each bank's RMAQ ⌈150/W⌉ deep.
func TestRMAQSizeForWindow(t *testing.T) {
	for _, c := range []struct{ w, want int }{{25, 6}, {50, 3}, {100, 2}} {
		if got := newDreamRMINT(t, c.w, true).rmaq[0].size; got != c.want {
			t.Errorf("RMAQ size at W=%d = %d, want %d", c.w, got, c.want)
		}
	}
}

// --- DREAM-C ----------------------------------------------------------------

func newDreamC(t *testing.T, cfg DreamCConfig) *DreamC {
	t.Helper()
	if cfg.Banks == 0 {
		cfg.Banks = 32
	}
	if cfg.RowsPerBank == 0 {
		cfg.RowsPerBank = 1 << 17
	}
	d, err := NewDreamC(cfg, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDreamCVerticalForTRH: DREAM-C derives Table 6's vertical factor V
// from T_RH.
func TestDreamCVerticalForTRH(t *testing.T) {
	for _, c := range []struct{ trh, want int }{{125, 1}, {250, 2}, {500, 4}, {1000, 8}} {
		if got := newDreamC(t, DreamCConfig{TRH: c.trh}).vertical; got != c.want {
			t.Errorf("DREAM-C V at T_RH %d = %d, want %d", c.trh, got, c.want)
		}
	}
}

// TestDreamCIndexPartition: for each bank, the grouping function must
// partition the bank's rows evenly across DCT entries (property-based).
func TestDreamCIndexPartition(t *testing.T) {
	d := newDreamC(t, DreamCConfig{TRH: 500, Grouping: GroupRandomized})
	f := func(bankRaw uint8, rowRaw uint32) bool {
		bank := int(bankRaw) % 32
		row := rowRaw % (1 << 17)
		idx := d.Index(bank, row)
		return idx >= 0 && idx < d.Entries()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDreamCGangRowsInverse: the rows GangRows reports for entry idx must
// map back to idx through Index — the gang is exactly the counter's
// constituency.
func TestDreamCGangRowsInverse(t *testing.T) {
	for _, cfg := range []DreamCConfig{
		{TRH: 125, Grouping: GroupRandomized},
		{TRH: 500, Grouping: GroupRandomized},
		{TRH: 500, Grouping: GroupSetAssociative},
		{TRH: 125, Grouping: GroupRandomized, EntryMult: 2},
	} {
		d := newDreamC(t, cfg)
		for _, idx := range []int{0, 1, 12345, d.Entries() - 1} {
			rounds := d.GangRows(idx)
			if len(rounds) != d.vertical {
				t.Fatalf("%+v: rounds = %d, want V = %d", cfg, len(rounds), d.vertical)
			}
			for _, rows := range rounds {
				for b, row := range rows {
					if row == memctrl.SkipRow {
						continue
					}
					if got := d.Index(b, row); got != idx {
						t.Fatalf("%+v: Index(%d,%d) = %d, want %d", cfg, b, row, got, idx)
					}
				}
			}
		}
	}
}

func TestDreamCThresholdTriggersGang(t *testing.T) {
	d := newDreamC(t, DreamCConfig{TRH: 500, Grouping: GroupRandomized, TTHOverride: 5})
	row := uint32(777)
	var dec memctrl.Decision
	fires := 0
	for i := 0; i < 12; i++ {
		dec = d.OnActivate(Tick(i), 3, row)
		if len(dec.PreOps) > 0 {
			fires++
			if i != 5 && i != 10 {
				t.Errorf("gang mitigation at activation %d, want 5 and 10 (TTH=5, reset to 1)", i)
			}
			op := dec.PreOps[0]
			if op.Kind != memctrl.OpGangMitigate || len(op.GangRows) != 4 {
				t.Fatalf("op = %+v, want 4 DRFMab rounds (V=4 at T_RH 500)", op)
			}
		}
	}
	if fires != 2 {
		t.Errorf("fires = %d, want 2", fires)
	}
}

func TestDreamCSetAssociativeSharesRowID(t *testing.T) {
	d := newDreamC(t, DreamCConfig{TRH: 125, Grouping: GroupSetAssociative})
	if d.Index(0, 99) != d.Index(31, 99) {
		t.Error("set-associative grouping must map the same RowID in every bank to one counter")
	}
	dr := newDreamC(t, DreamCConfig{TRH: 125, Grouping: GroupRandomized})
	same := 0
	for row := uint32(0); row < 1000; row++ {
		if dr.Index(0, row) == dr.Index(31, row) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("randomized grouping collides on %d/1000 RowIDs", same)
	}
}

func TestDreamCResetSweep(t *testing.T) {
	d := newDreamC(t, DreamCConfig{TRH: 500, Grouping: GroupSetAssociative, ResetPeriod: 8192})
	// Default: 128K/4 = 32K entries, 8192 REFs per sweep -> 4 per REF.
	if d.resetChunk != 4 {
		t.Errorf("reset chunk = %d, want 4", d.resetChunk)
	}
	d.dct[0] = 9
	d.dct[3] = 9
	d.dct[4] = 9
	d.OnRefresh(0, 0)
	if d.Counter(0) != 0 || d.Counter(3) != 0 {
		t.Error("first REF must reset entries 0..3")
	}
	if d.Counter(4) != 9 {
		t.Error("entry 4 must survive the first REF")
	}
}

func TestDreamCEntryMultHalvesGang(t *testing.T) {
	d := newDreamC(t, DreamCConfig{TRH: 125, Grouping: GroupRandomized, EntryMult: 2})
	if d.Entries() != 2*(1<<17) {
		t.Errorf("entries = %d, want 2x rows", d.Entries())
	}
	rows := d.GangRows(5)[0]
	members := 0
	for _, r := range rows {
		if r != memctrl.SkipRow {
			members++
		}
	}
	if members != 16 {
		t.Errorf("gang members = %d, want 16 with mult 2", members)
	}
}

func TestDreamCRMAQRateLimit(t *testing.T) {
	d := newDreamC(t, DreamCConfig{TRH: 500, Grouping: GroupRandomized, TTHOverride: 3, UseRMAQ: true})
	row := uint32(50)
	fires, skips := 0, 0
	for i := 0; i < 20; i++ {
		dec := d.OnActivate(Tick(i), 0, row)
		if len(dec.PreOps) > 0 {
			fires++
		}
	}
	skips = int(d.RMAQSkips)
	if fires != 1 {
		t.Errorf("fires = %d, want 1 (rate limit holds further mitigation)", fires)
	}
	if skips == 0 {
		t.Error("expected RMAQ skips while blocked")
	}
	// Two epochs later the gang may mitigate again.
	d.OnRefresh(0, 0)
	d.OnRefresh(0, 1)
	dec := d.OnActivate(100, 0, row)
	if len(dec.PreOps) == 0 {
		t.Error("gang must mitigate again after the rate-limit shadow")
	}
}

func TestDreamCStorageTable6(t *testing.T) {
	// Table 6: KB/bank for T_RH 125/250/500/1000 = 3 / 1.75 / 1 / 0.56
	// (our counters round up to whole bits, so allow ~20%).
	want := map[int]float64{125: 3, 250: 1.75, 500: 1, 1000: 0.5625}
	for trh, kb := range want {
		d := newDreamC(t, DreamCConfig{TRH: trh, Grouping: GroupRandomized})
		got := float64(d.StorageBits()) / 8 / 1024 / 32
		if got < kb*0.8 || got > kb*1.35 {
			t.Errorf("T_RH=%d: storage %.2f KB/bank, want ~%.2f", trh, got, kb)
		}
	}
}

func TestDreamCValidation(t *testing.T) {
	if _, err := NewDreamC(DreamCConfig{TRH: 500, Banks: 32, RowsPerBank: 1 << 17, Grouping: GroupRandomized}, nil); err == nil {
		t.Error("randomized grouping without an RNG should fail")
	}
}
