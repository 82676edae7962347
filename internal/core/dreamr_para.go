package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
)

// DreamRPARAConfig configures DREAM-R over a PARA tracker.
type DreamRPARAConfig struct {
	TRH   int
	Banks int
	Kind  DRFMKind
	// UseATM enables Active Target-row Monitoring (the paper's default,
	// Table 4: p = security.ATMProb, 1/99 at T_RH = 2000). Without it the
	// delayed DRFM turns the exponential epoch into a Gamma(2) tail, so
	// Appendix A's revised p′ = security.RevisedPARAProbApprox applies
	// (1/85 at T_RH = 2000).
	UseATM bool
	// POverride replaces the derived probability (tests/ablations).
	POverride float64
}

// DreamRPARA is DREAM-R applied to PARA (§4.3, Listing 1): implicit
// sampling with decoupled, delayed DRFM. Before each activation the tracker
// is checked; a selected activation is closed with Pre+Sample into the DAR,
// and the DRFM is issued only when a *second* selection needs the DAR (or
// ATM fires), letting the other banks of the DRFM set fill their DARs in
// the interim.
type DreamRPARA struct {
	p    float64
	kind DRFMKind
	rng  *sim.RNG
	dar  []darMirror
	atm  *atm

	// Selections counts tracker selections; FlushDRFMs counts DRFMs forced
	// by a second selection; ATMDRFMs counts DRFMs forced by ATM.
	Selections uint64
	FlushDRFMs uint64
	ATMDRFMs   uint64
}

// NewDreamRPARA builds the mitigator.
func NewDreamRPARA(cfg DreamRPARAConfig, rng *sim.RNG) (*DreamRPARA, error) {
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("core: DreamRPARA needs banks")
	}
	if rng == nil {
		return nil, fmt.Errorf("core: DreamRPARA needs an RNG")
	}
	p := cfg.POverride
	if p == 0 {
		if cfg.TRH < 2*security.ATMTH {
			return nil, fmt.Errorf("core: DreamRPARA T_RH %d too small", cfg.TRH)
		}
		if cfg.UseATM {
			p = security.ATMProb(cfg.TRH, security.ATMTH)
		} else {
			p = security.RevisedPARAProbApprox(cfg.TRH)
		}
	}
	d := &DreamRPARA{p: p, kind: cfg.Kind, rng: rng, dar: make([]darMirror, cfg.Banks)}
	if cfg.UseATM {
		d.atm = newATM(cfg.Banks)
	}
	return d, nil
}

// OnActivate implements memctrl.Mitigator (Listing 1 plus ATM).
func (t *DreamRPARA) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	var d memctrl.Decision
	flushed := false
	if t.atm != nil && t.atm.onActivate(bank, row, t.dar[bank]) {
		d.PreOps = append(d.PreOps, t.kind.drfmOp(bank))
		t.ATMDRFMs++
		flushed = true
	}
	if t.rng.Bernoulli(t.p) {
		t.Selections++
		if t.dar[bank].valid && !flushed {
			// Scenario 3: a second selection arrives while the DAR waits —
			// the delayed DRFM is due now.
			d.PreOps = append(d.PreOps, t.kind.drfmOp(bank))
			t.FlushDRFMs++
		}
		// Scenario 1/3 tail: Implicit-Sampling at the row's natural close.
		d.Sample = true
	}
	return d
}

// OnSampled implements memctrl.Mitigator.
func (t *DreamRPARA) OnSampled(now Tick, bank int, row uint32) {
	t.dar[bank] = darMirror{valid: true, row: row}
	if t.atm != nil {
		t.atm.onDARCleared(bank)
	}
}

// OnMitigations implements memctrl.Mitigator.
func (t *DreamRPARA) OnMitigations(now Tick, mits []dram.Mitigation) {
	for _, m := range mits {
		t.dar[m.Bank] = darMirror{}
		if t.atm != nil {
			t.atm.onDARCleared(m.Bank)
		}
	}
}

// OnRefresh implements memctrl.Mitigator.
func (t *DreamRPARA) OnRefresh(Tick, uint64) []memctrl.Op { return nil }

// StorageBits implements memctrl.Mitigator: DAR mirrors plus ATM.
func (t *DreamRPARA) StorageBits() int64 {
	bits := int64(len(t.dar)) * (security.RowAddrBits + 1)
	if t.atm != nil {
		bits += t.atm.storageBits()
	}
	return bits + 64 // RNG state
}

// ATMTriggers reports ATM-forced DRFMs (test hook).
func (t *DreamRPARA) ATMTriggers() uint64 {
	if t.atm == nil {
		return 0
	}
	return t.atm.Triggers
}
