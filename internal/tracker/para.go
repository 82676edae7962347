package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// PARA is the classic probabilistic tracker [Kim+, ISCA'14] implemented at
// the memory controller with coupled sampling and mitigation (§2.6,
// Figure 4): on each activation the row is selected with probability p
// (security.PARAProb); a selected row is closed with Pre+Sample and
// mitigated immediately.
type PARA struct {
	p    float64
	mode Mode
	rng  *sim.RNG

	// Selections counts tracker selections (mitigation requests).
	Selections uint64
}

// NewPARA builds a coupled PARA tracker with probability p driving the
// given mitigation interface.
func NewPARA(p float64, mode Mode, rng *sim.RNG) (*PARA, error) {
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("tracker: PARA probability %v out of (0,1]", p)
	}
	if rng == nil {
		return nil, fmt.Errorf("tracker: PARA needs an RNG")
	}
	return &PARA{p: p, mode: mode, rng: rng}, nil
}

// Name implements memctrl.Mitigator.
func (t *PARA) Name() string { return fmt.Sprintf("PARA(p=%.5f,%s)", t.p, t.mode) }

// OnActivate implements memctrl.Mitigator: IID selection with probability p.
func (t *PARA) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	if !t.rng.Bernoulli(t.p) {
		return memctrl.Decision{}
	}
	t.Selections++
	if t.mode == ModeNRR {
		// NRR mitigates the named row; close it first, then stall the bank.
		return memctrl.Decision{
			CloseNow: true,
			PostOps:  []memctrl.Op{{Kind: memctrl.OpNRR, Bank: bank, Row: row}},
		}
	}
	// Implicit-Sampling: close with Pre+Sample, then immediately DRFM
	// (sampling and mitigation stay coupled, preserving PARA's threshold).
	return memctrl.Decision{
		Sample:   true,
		CloseNow: true,
		PostOps:  []memctrl.Op{t.mode.drfmOp(bank)},
	}
}

// OnSampled implements memctrl.Mitigator.
func (t *PARA) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *PARA) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator.
func (t *PARA) OnRefresh(Tick, uint64) []memctrl.Op { return nil }

// StorageBits implements memctrl.Mitigator: PARA keeps no per-row state;
// only an LFSR worth of bits.
func (t *PARA) StorageBits() int64 { return 64 }
