// Package memctrl implements the per-sub-channel memory controller: request
// queues, FR-FCFS scheduling with an open-page/MOP policy, periodic refresh,
// write draining — and the Rowhammer-mitigation hook through which every
// tracker in this repository (PARA, MINT, Graphene, ABACuS, MOAT, DREAM-R,
// DREAM-C) plugs into the command stream.
package memctrl

import (
	"repro/internal/dram"
	"repro/internal/sim"
)

// Tick aliases sim.Tick.
type Tick = sim.Tick

// SkipRow marks a bank that takes no sample in an OpGangMitigate round.
const SkipRow = dram.SkipRow

// OpKind enumerates mitigation operations a Mitigator can ask the
// controller to perform.
type OpKind int

// Mitigation operation kinds.
const (
	// OpNRR performs the hypothetical Nearby-Row-Refresh of (Bank, Row):
	// only that bank stalls, for tNRR.
	OpNRR OpKind = iota
	// OpDRFMsb issues a same-bank DRFM covering Bank's position in all 8
	// bankgroups (stalls 8 banks for tDRFMsb, mitigates their valid DARs).
	OpDRFMsb
	// OpDRFMab issues an all-bank DRFM (stalls 32 banks for tDRFMab).
	OpDRFMab
	// OpExplicitSample performs a dummy ACT + Pre+Sample of (Bank, Row),
	// leaving the bank's DAR valid (costs one full row cycle on the bank).
	OpExplicitSample
	// OpGangMitigate performs DREAM-C/ABACuS mitigation rounds: for each
	// rounds entry, all 32 DARs are populated by back-to-back explicit
	// samples and one DRFMab is issued (~411 ns of sub-channel blockage per
	// round, §5.5).
	OpGangMitigate
	// OpStallAll blocks the entire sub-channel for Dur (PRAC's ABO).
	OpStallAll
)

// Op is one mitigation operation.
type Op struct {
	Kind OpKind
	Bank int
	Row  uint32
	// GangRows, for OpGangMitigate, holds one row per bank for each round.
	GangRows [][]uint32
	// Dur, for OpStallAll, is the stall duration.
	Dur Tick
}

// Decision is the mitigator's verdict for one upcoming activation.
type Decision struct {
	// PreOps execute before the ACT is issued (e.g., DREAM-R's DAR flush
	// when a second sample arrives, or MINT's window-end sampling+DRFM).
	PreOps []Op
	// Sample requests that the activated row be closed with Pre+Sample,
	// committing it into the bank's DAR at its natural closure.
	Sample bool
	// CloseNow forces the row to close immediately after the column access
	// (coupled designs pay this row-locality penalty; §2.6).
	CloseNow bool
	// PostOps execute right after the forced closure (e.g., coupled PARA's
	// immediate DRFM).
	PostOps []Op
}

// Mitigator is the tracker+mitigation policy attached to one sub-channel.
// The controller consults it on every demand activation and reports back the
// sampling and victim-refresh events it performs.
type Mitigator interface {
	// OnActivate is consulted when the controller is about to activate
	// (bank, row) at approximately time now.
	OnActivate(now Tick, bank int, row uint32) Decision
	// OnSampled reports that a Pre+Sample committed row into bank's DAR.
	OnSampled(now Tick, bank int, row uint32)
	// OnMitigations reports victim-refreshes that completed (from DRFM,
	// NRR, or gang rounds).
	OnMitigations(now Tick, mits []dram.Mitigation)
	// OnRefresh is invoked at each periodic REF with its index; returned
	// ops are executed after the REF (rarely used).
	OnRefresh(now Tick, refIndex uint64) []Op
	// StorageBits reports the scheme's SRAM cost per sub-channel, in bits.
	StorageBits() int64
}

// None is the unprotected baseline: no tracking, no mitigation.
type None struct{}

// OnActivate implements Mitigator.
func (None) OnActivate(Tick, int, uint32) Decision { return Decision{} }

// OnSampled implements Mitigator.
func (None) OnSampled(Tick, int, uint32) {}

// OnMitigations implements Mitigator.
func (None) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements Mitigator.
func (None) OnRefresh(Tick, uint64) []Op { return nil }

// StorageBits implements Mitigator.
func (None) StorageBits() int64 { return 0 }
