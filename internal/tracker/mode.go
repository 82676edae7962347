// Package tracker implements the MC-side Rowhammer trackers the paper
// evaluates as baselines: the randomized trackers PARA and MINT (§2.4,
// coupled to their mitigation as in §2.6), the counter-based trackers
// Graphene (Misra–Gries) and ABACuS (shared row-ID counters with Sibling
// Activation Vectors), and MOAT, the PRAC-based in-DRAM defense used for the
// §7.1 comparison.
//
// Every tracker implements memctrl.Mitigator. The DREAM designs themselves
// live in internal/core.
package tracker

import (
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// Tick aliases sim.Tick.
type Tick = sim.Tick

// Mode selects the mitigation interface a tracker drives (§2.5): the
// hypothetical per-bank NRR, or JEDEC's DRFMsb / DRFMab.
type Mode int

// Mitigation interfaces.
const (
	ModeNRR Mode = iota
	ModeDRFMsb
	ModeDRFMab
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNRR:
		return "NRR"
	case ModeDRFMsb:
		return "DRFMsb"
	case ModeDRFMab:
		return "DRFMab"
	default:
		return "Mode(?)"
	}
}

// drfmOp returns the DRFM op for the mode; callers handle ModeNRR
// separately because NRR names the row directly.
func (m Mode) drfmOp(bank int) memctrl.Op {
	if m == ModeDRFMab {
		return memctrl.Op{Kind: memctrl.OpDRFMab}
	}
	return memctrl.Op{Kind: memctrl.OpDRFMsb, Bank: bank}
}
