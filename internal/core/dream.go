// Package core implements the paper's contribution: DREAM, DRFM-Aware
// Rowhammer Mitigation.
//
// DREAM-R (§4) reduces the slowdown of randomized trackers by *decoupling*
// sampling from mitigation: a selected row is sampled into the bank's DRFM
// Address Register and the DRFM command is delayed until a second selection
// needs the DAR (or ATM fires). The delay gives the other banks covered by
// the same DRFM command time to sample their own DARs, raising the
// Rowhammer-mitigation Level Parallelism (RLP) each DRFM achieves and
// cutting the DRFM rate.
//
// DREAM-C (§5) reduces the storage of counter-based trackers by exploiting
// DRFMab's RLP of 32: a gang of 32–256 rows (randomly chosen from all 32
// banks) shares one counter in the DREAM Counter Table, and the whole gang
// is mitigated together by 1–8 DRFMab commands.
//
// The §4.4 Active Target-row Monitoring (ATM) register and the §6 RMAQ
// rate-limit FIFOs are implemented here too.
package core

import (
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// Tick aliases sim.Tick.
type Tick = sim.Tick

// DRFMKind selects which DRFM command DREAM-R delays.
type DRFMKind int

// DRFM flavours.
const (
	// DRFMsb stalls the same bank in all 8 bankgroups (the paper's §4
	// baseline — lower cost per command, RLP up to 8).
	DRFMsb DRFMKind = iota
	// DRFMab stalls all 32 banks (RLP up to 32).
	DRFMab
)

// String implements fmt.Stringer.
func (k DRFMKind) String() string {
	if k == DRFMab {
		return "DRFMab"
	}
	return "DRFMsb"
}

// drfmOp builds the delayed-mitigation op for the flavour.
func (k DRFMKind) drfmOp(bank int) memctrl.Op {
	if k == DRFMab {
		return memctrl.Op{Kind: memctrl.OpDRFMab}
	}
	return memctrl.Op{Kind: memctrl.OpDRFMsb, Bank: bank}
}

// sameSet lists the banks stalled (and mitigated) together with bank under
// the flavour, for nbanks banks.
func (k DRFMKind) sameSet(bank, nbanks int) []int {
	if k == DRFMab {
		set := make([]int, nbanks)
		for i := range set {
			set[i] = i
		}
		return set
	}
	return dram.DRFMsbSet(bank, nbanks)
}

// darMirror is the MC-side copy of each bank's DAR occupancy that DREAM-R
// keeps so it can decide, before an activation, whether the DAR must be
// flushed with a DRFM first.
type darMirror struct {
	valid bool
	row   uint32
}
