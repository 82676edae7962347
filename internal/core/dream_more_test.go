package core

import (
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

func TestNamesAndStrings(t *testing.T) {
	if DRFMsb.String() != "DRFMsb" || DRFMab.String() != "DRFMab" {
		t.Error("DRFMKind strings wrong")
	}
	if GroupRandomized.String() != "randomized" || GroupSetAssociative.String() != "set-assoc" {
		t.Error("Grouping strings wrong")
	}
	p, err := NewDreamRPARA(DreamRPARAConfig{TRH: 2000, Banks: 32, UseATM: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Name(), "DREAM-R/PARA") {
		t.Errorf("name = %q", p.Name())
	}
	m, err := NewDreamRMINT(DreamRMINTConfig{TRH: 2000, Banks: 32, UseATM: true, UseRMAQ: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Name(), "rmaq=true") {
		t.Errorf("name = %q", m.Name())
	}
	if m.Window() != 99 {
		t.Errorf("window = %d", m.Window())
	}
	c, err := NewDreamC(DreamCConfig{TRH: 500, Banks: 32, RowsPerBank: 1 << 17,
		Grouping: GroupRandomized}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Name(), "gang=128") {
		t.Errorf("name = %q", c.Name())
	}
	// Randomized masks must exist and differ across banks.
	distinct := map[uint32]bool{}
	for b := 0; b < 32; b++ {
		distinct[c.Mask(b)] = true
	}
	if len(distinct) < 16 {
		t.Errorf("only %d distinct masks", len(distinct))
	}
	// No-op hooks must not panic.
	c.OnSampled(0, 0, 0)
	c.OnMitigations(0, []dram.Mitigation{{Bank: 0, Row: 0}})
}

func TestStorageBitsAccounting(t *testing.T) {
	// DREAM-R (MINT) with ATM and RMAQ must cost only a few hundred bytes
	// per sub-channel (the paper's "negligible SRAM" claim: ~3 B/bank ATM
	// + 5-15 B/bank RMAQ + per-bank window state).
	m, err := NewDreamRMINT(DreamRMINTConfig{TRH: 1000, Banks: 32, UseATM: true, UseRMAQ: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	bytes := float64(m.StorageBits()) / 8
	if bytes < 100 || bytes > 1024 {
		t.Errorf("DREAM-R MINT storage = %.0f B/sub-channel, want a few hundred", bytes)
	}
	p, err := NewDreamRPARA(DreamRPARAConfig{TRH: 1000, Banks: 32, UseATM: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if pb := float64(p.StorageBits()) / 8; pb < 50 || pb > 512 {
		t.Errorf("DREAM-R PARA storage = %.0f B/sub-channel", pb)
	}
	// ATM alone is ~3 bytes per bank.
	a := newATM(32)
	if perBank := float64(a.storageBits()) / 8 / 32; perBank < 2 || perBank > 4 {
		t.Errorf("ATM = %.1f B/bank, paper says ~3", perBank)
	}
	q := NewRMAQ(6)
	if b := float64(q.storageBits()) / 8; b < 10 || b > 20 {
		t.Errorf("RMAQ(6) = %.1f B, paper says 15", b)
	}
}

func TestDreamRPARAOnRefreshNoOp(t *testing.T) {
	p, err := NewDreamRPARA(DreamRPARAConfig{TRH: 2000, Banks: 32, UseATM: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if ops := p.OnRefresh(0, 0); ops != nil {
		t.Errorf("OnRefresh ops = %v", ops)
	}
	if p.ATMTriggers() != 0 {
		t.Error("fresh tracker has triggers")
	}
	noATM, err := NewDreamRPARA(DreamRPARAConfig{TRH: 2000, Banks: 32}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if noATM.ATMTriggers() != 0 {
		t.Error("ATMTriggers without ATM must be 0")
	}
}

func TestDreamRMINTOnMitigationsClearsMirror(t *testing.T) {
	m, err := NewDreamRMINT(DreamRMINTConfig{TRH: 2000, Banks: 32, UseATM: true}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m.OnSampled(0, 3, 500)
	if !m.dar[3].valid {
		t.Fatal("mirror not set")
	}
	m.OnMitigations(10, []dram.Mitigation{{Bank: 3, Row: 500}})
	if m.dar[3].valid {
		t.Error("mirror not cleared by mitigation")
	}
}

func TestDreamRMINTValidation(t *testing.T) {
	if _, err := NewDreamRMINT(DreamRMINTConfig{TRH: 30, Banks: 32, UseATM: true}, sim.NewRNG(1)); err == nil {
		t.Error("tiny T_RH should fail")
	}
	if _, err := NewDreamRMINT(DreamRMINTConfig{TRH: 2000, Banks: 0}, sim.NewRNG(1)); err == nil {
		t.Error("no banks should fail")
	}
	if _, err := NewDreamRMINT(DreamRMINTConfig{TRH: 2000, Banks: 32}, nil); err == nil {
		t.Error("nil RNG should fail")
	}
	if _, err := NewDreamRPARA(DreamRPARAConfig{TRH: 2000, Banks: 0}, sim.NewRNG(1)); err == nil {
		t.Error("PARA no banks should fail")
	}
}

// TestRMAQSizeEdgeCases: the smallest window DREAM-R/MINT derives (W = 2 at
// T_RH 60, with or without ATM) gets a 75-entry RMAQ, and a window of 150
// or more floors at 2 entries.
func TestRMAQSizeEdgeCases(t *testing.T) {
	for _, atm := range []bool{false, true} {
		d, err := NewDreamRMINT(DreamRMINTConfig{TRH: 60, Banks: 1, UseATM: atm, UseRMAQ: true}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if d.Window() != 2 || d.rmaq[0].size != 75 {
			t.Errorf("atm=%v: T_RH 60 gives W=%d with %d RMAQ entries, want W=2 with 75", atm, d.Window(), d.rmaq[0].size)
		}
	}
	for _, w := range []int{150, 1000} {
		d, err := NewDreamRMINT(DreamRMINTConfig{TRH: 2000, Banks: 1, UseRMAQ: true, WOverride: w}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if d.rmaq[0].size != 2 {
			t.Errorf("W=%d: %d RMAQ entries, want the floor of 2", w, d.rmaq[0].size)
		}
	}
}
