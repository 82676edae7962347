package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

// recordingMit scripts decisions and records callbacks.
type recordingMit struct {
	decide   func(now Tick, bank int, row uint32) Decision
	sampled  []dram.Mitigation // reuse the struct for (bank,row) pairs
	mits     []dram.Mitigation
	refreshs int
}

func (m *recordingMit) Name() string { return "recording" }
func (m *recordingMit) OnActivate(now Tick, bank int, row uint32) Decision {
	if m.decide == nil {
		return Decision{}
	}
	return m.decide(now, bank, row)
}
func (m *recordingMit) OnSampled(now Tick, bank int, row uint32) {
	m.sampled = append(m.sampled, dram.Mitigation{Bank: bank, Row: row})
}
func (m *recordingMit) OnMitigations(now Tick, mits []dram.Mitigation) {
	m.mits = append(m.mits, mits...)
}
func (m *recordingMit) OnRefresh(now Tick, ref uint64) []Op {
	m.refreshs++
	return nil
}
func (m *recordingMit) StorageBits() int64 { return 0 }

func newCtrl(t *testing.T, mit Mitigator) (*Controller, *[]Tick) {
	t.Helper()
	dev, err := dram.NewSubChannel(dram.DefaultTimings(), 32)
	if err != nil {
		t.Fatal(err)
	}
	var dones []Tick
	c, err := New(DefaultConfig(), dev, mit, func(core int, token uint64, done Tick) {
		dones = append(dones, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &dones
}

// drive processes the controller until no work remains before horizon.
func drive(t *testing.T, c *Controller, horizon Tick) {
	t.Helper()
	now := Tick(0)
	for now < horizon {
		next, err := c.Process(now)
		if err != nil {
			t.Fatal(err)
		}
		if next >= horizon {
			return
		}
		now = next
	}
}

func TestConfigValidation(t *testing.T) {
	dev, _ := dram.NewSubChannel(dram.DefaultTimings(), 32)
	bad := DefaultConfig()
	bad.MOPCap = 0
	if _, err := New(bad, dev, nil, nil); err == nil {
		t.Error("MOPCap=0 should fail")
	}
	// The banked scheduler keeps one bit per bank in a uint64.
	for banks, ok := range map[int]bool{64: true, 68: false} {
		dev, err := dram.NewSubChannel(dram.DefaultTimings(), banks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(DefaultConfig(), dev, nil, nil); (err == nil) != ok {
			t.Errorf("%d banks: New error %v, want ok=%v", banks, err, ok)
		}
	}
}

func TestServiceSimpleRead(t *testing.T) {
	c, dones := newCtrl(t, nil)
	c.Enqueue(Request{Arrival: 0, Bank: 2, Row: 7, Core: 0, Token: 1, Notify: true})
	drive(t, c, sim.NS(1000))
	if len(*dones) != 1 {
		t.Fatalf("completions = %d", len(*dones))
	}
	ti := c.Device().Timings
	want := ti.TRCD + ti.TCL + ti.TBUS + ChipLatency
	if (*dones)[0] != want {
		t.Errorf("completion at %v, want %v", (*dones)[0], want)
	}
	if c.Activations != 1 || c.RowHits != 0 {
		t.Errorf("acts=%d hits=%d", c.Activations, c.RowHits)
	}
}

func TestRowHitNoActivate(t *testing.T) {
	c, dones := newCtrl(t, nil)
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 5, Token: 1, Notify: true})
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 5, Token: 2, Notify: true})
	drive(t, c, sim.NS(1000))
	if len(*dones) != 2 {
		t.Fatalf("completions = %d", len(*dones))
	}
	if c.Activations != 1 {
		t.Errorf("activations = %d, want 1 (second access is a row hit)", c.Activations)
	}
	if c.RowHits != 1 {
		t.Errorf("row hits = %d", c.RowHits)
	}
}

func TestMOPCapClosesRow(t *testing.T) {
	c, _ := newCtrl(t, nil)
	for i := 0; i < 5; i++ {
		c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 5, Token: uint64(i), Notify: true})
	}
	drive(t, c, sim.NS(2000))
	// MOP cap 4: the fifth access needs a second activation.
	if c.Activations != 2 {
		t.Errorf("activations = %d, want 2", c.Activations)
	}
}

func TestConflictPrechargesFirst(t *testing.T) {
	c, dones := newCtrl(t, nil)
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 5, Token: 1, Notify: true})
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 9, Token: 2, Notify: true})
	drive(t, c, sim.NS(2000))
	if len(*dones) != 2 {
		t.Fatalf("completions = %d", len(*dones))
	}
	ti := c.Device().Timings
	// Second read must wait at least tRAS + tRP + tRCD after the first ACT.
	if min := ti.TRAS + ti.TRP + ti.TRCD; (*dones)[1] < min {
		t.Errorf("conflicting read done at %v, want >= %v", (*dones)[1], min)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c, _ := newCtrl(t, nil)
	// Open row 5 on bank 0.
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 5, Token: 1, Notify: true})
	if _, err := c.Process(0); err != nil {
		t.Fatal(err)
	}
	// Older conflicting request and a younger row hit, both arriving while
	// row 5 is still open.
	c.Enqueue(Request{Arrival: sim.NS(100), Bank: 0, Row: 9, Token: 2, Notify: true})
	c.Enqueue(Request{Arrival: sim.NS(100), Bank: 0, Row: 5, Token: 3, Notify: true})
	drive(t, c, sim.NS(3000))
	// The hit rides the open row: only 2 activations total (rows 5, 9).
	if c.Activations != 2 {
		t.Errorf("activations = %d, want 2 (hit must not reopen)", c.Activations)
	}
	if c.RowHits != 1 {
		t.Errorf("row hits = %d, want 1", c.RowHits)
	}
}

func TestRefreshCadence(t *testing.T) {
	mit := &recordingMit{}
	c, _ := newCtrl(t, mit)
	ti := c.Device().Timings
	drive(t, c, 5*ti.TREFI+1)
	if c.Device().Refreshes < 4 {
		t.Errorf("refreshes = %d, want >= 4 in 5 tREFI", c.Device().Refreshes)
	}
	if mit.refreshs != int(c.Device().Refreshes) {
		t.Errorf("mitigator saw %d refreshes, device %d", mit.refreshs, c.Device().Refreshes)
	}
}

func TestWriteDrain(t *testing.T) {
	c, _ := newCtrl(t, nil)
	for i := 0; i < 30; i++ {
		c.Enqueue(Request{Arrival: 0, Bank: i % 8, Row: 1, IsWrite: true})
	}
	drive(t, c, sim.NS(5000))
	_, w := c.QueueLens()
	if w > WriteLo {
		t.Errorf("writes pending after drain = %d", w)
	}
	if c.WritesServed < 26 {
		t.Errorf("writes served = %d", c.WritesServed)
	}
}

func TestSampleOnCloseCallback(t *testing.T) {
	mit := &recordingMit{}
	mit.decide = func(now Tick, bank int, row uint32) Decision {
		return Decision{Sample: true}
	}
	c, _ := newCtrl(t, mit)
	c.Enqueue(Request{Arrival: 0, Bank: 3, Row: 42, Token: 1, Notify: true})
	// Force a close via a conflicting row.
	c.Enqueue(Request{Arrival: 1, Bank: 3, Row: 43, Token: 2, Notify: true})
	drive(t, c, sim.NS(3000))
	if len(mit.sampled) < 1 || mit.sampled[0].Row != 42 || mit.sampled[0].Bank != 3 {
		t.Fatalf("sampled = %v, want row 42 on bank 3 first", mit.sampled)
	}
	// Row 42 must be in the DAR until a DRFM.
	if d := c.Device().Bank(3).DAR; !d.Valid || d.Row != 42 {
		t.Errorf("DAR = %+v", d)
	}
}

func TestCoupledDRFMViaPostOps(t *testing.T) {
	mit := &recordingMit{}
	first := true
	mit.decide = func(now Tick, bank int, row uint32) Decision {
		if !first {
			return Decision{}
		}
		first = false
		return Decision{
			Sample:   true,
			CloseNow: true,
			PostOps:  []Op{{Kind: OpDRFMsb, Bank: bank}},
		}
	}
	c, _ := newCtrl(t, mit)
	c.Enqueue(Request{Arrival: 0, Bank: 1, Row: 100, Token: 1, Notify: true})
	drive(t, c, sim.NS(3000))
	if len(mit.mits) != 1 || mit.mits[0].Row != 100 {
		t.Fatalf("mitigations = %v, want row 100", mit.mits)
	}
	if c.Device().DRFMsbs != 1 {
		t.Errorf("DRFMsb count = %d", c.Device().DRFMsbs)
	}
	if c.Device().Bank(1).DAR.Valid {
		t.Error("DAR must be consumed by the DRFM")
	}
}

func TestPreOpsDelayACT(t *testing.T) {
	mit := &recordingMit{}
	first := true
	mit.decide = func(now Tick, bank int, row uint32) Decision {
		if !first {
			return Decision{}
		}
		first = false
		return Decision{PreOps: []Op{{Kind: OpStallAll, Dur: sim.NS(600)}}}
	}
	c, dones := newCtrl(t, mit)
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 1, Token: 1, Notify: true})
	drive(t, c, sim.NS(3000))
	if len(*dones) != 1 {
		t.Fatal("no completion")
	}
	if (*dones)[0] < sim.NS(600) {
		t.Errorf("read done at %v, want after the 600ns pre-op stall", (*dones)[0])
	}
}

func TestExplicitSampleOpReportsOnSampled(t *testing.T) {
	mit := &recordingMit{}
	first := true
	mit.decide = func(now Tick, bank int, row uint32) Decision {
		if !first {
			return Decision{}
		}
		first = false
		return Decision{PreOps: []Op{{Kind: OpExplicitSample, Bank: 9, Row: 777}}}
	}
	c, _ := newCtrl(t, mit)
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 1, Token: 1, Notify: true})
	drive(t, c, sim.NS(3000))
	if len(mit.sampled) != 1 || mit.sampled[0].Bank != 9 || mit.sampled[0].Row != 777 {
		t.Fatalf("sampled = %v", mit.sampled)
	}
	if d := c.Device().Bank(9).DAR; !d.Valid || d.Row != 777 {
		t.Errorf("DAR = %+v", d)
	}
}

func TestGangMitigateOp(t *testing.T) {
	mit := &recordingMit{}
	first := true
	rows := make([]uint32, 32)
	for b := range rows {
		rows[b] = uint32(2000 + b)
	}
	rows[7] = SkipRow
	mit.decide = func(now Tick, bank int, row uint32) Decision {
		if !first {
			return Decision{}
		}
		first = false
		return Decision{PreOps: []Op{{Kind: OpGangMitigate, GangRows: [][]uint32{rows, rows}}}}
	}
	c, _ := newCtrl(t, mit)
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 1, Token: 1, Notify: true})
	drive(t, c, sim.NS(5000))
	if c.Device().DRFMabs != 2 {
		t.Errorf("DRFMab count = %d, want 2 rounds", c.Device().DRFMabs)
	}
	if len(mit.mits) != 62 {
		t.Errorf("mitigations = %d, want 62 (31 banks x 2 rounds)", len(mit.mits))
	}
}

func TestNRROp(t *testing.T) {
	mit := &recordingMit{}
	first := true
	mit.decide = func(now Tick, bank int, row uint32) Decision {
		if !first {
			return Decision{}
		}
		first = false
		return Decision{CloseNow: true, PostOps: []Op{{Kind: OpNRR, Bank: bank, Row: row}}}
	}
	c, _ := newCtrl(t, mit)
	c.Enqueue(Request{Arrival: 0, Bank: 4, Row: 50, Token: 1, Notify: true})
	drive(t, c, sim.NS(3000))
	if c.Device().NRRs != 1 {
		t.Errorf("NRRs = %d", c.Device().NRRs)
	}
	if len(mit.mits) != 1 || mit.mits[0].Row != 50 {
		t.Errorf("mitigations = %v", mit.mits)
	}
}

func TestStatsHelpers(t *testing.T) {
	c, _ := newCtrl(t, nil)
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 1, Token: 1, Notify: true})
	c.Enqueue(Request{Arrival: 0, Bank: 0, Row: 1, Token: 2, Notify: true})
	drive(t, c, sim.NS(1000))
	if c.AvgReadLatency() <= 0 {
		t.Error("no read latency recorded")
	}
	if got := c.RowHitRate(); got != 0.5 {
		t.Errorf("row hit rate = %v, want 0.5", got)
	}
}
