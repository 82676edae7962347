package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
)

// DreamRMINTConfig configures DREAM-R over a MINT tracker.
type DreamRMINTConfig struct {
	TRH   int
	Banks int
	Kind  DRFMKind
	// UseATM enables Active Target-row Monitoring (paper default, Table 4:
	// W = security.ATMWindow, 99 at T_RH = 2000). Without it delaying the
	// DRFM by up to one window raises the tolerated threshold to 20.5·W
	// (Appendix B), so W = security.RevisedMINTWindow (97 at T_RH = 2000).
	UseATM bool
	// UseRMAQ enables the §6 Recently-Mitigated-Address Queues that
	// enforce JEDEC's once-per-2·tREFI DRFM rate limit, each
	// security.RMAQEntries deep.
	UseRMAQ bool
	// WOverride replaces the derived window (tests/ablations).
	WOverride int
}

// DreamRMINT is DREAM-R applied to MINT (§4.3, Listing 2, Figure 8):
// decoupled sampling and mitigation with both implicit and explicit
// sampling. Within a window, the URAND-selected row is implicitly sampled
// into the DAR if it is free; otherwise the row is buffered in the MC-side
// SAR. At the end of a window with a waiting MC-SAR, one DRFM flushes the
// set's DARs (mitigating up to 8/32 rows at once) and every waiting MC-SAR
// in the set is explicitly sampled into its now-free DAR.
type DreamRMINT struct {
	w     int
	kind  DRFMKind
	rng   *sim.RNG
	banks []dreamMintBank
	dar   []darMirror
	atm   *atm
	rmaq  []*RMAQ

	// Selections counts window selections; WindowDRFMs counts end-of-window
	// DRFMs; ATMDRFMs counts ATM-forced DRFMs; RMAQSkips counts selections
	// suppressed by the rate limit.
	Selections  uint64
	WindowDRFMs uint64
	ATMDRFMs    uint64
	RMAQSkips   uint64
}

type dreamMintBank struct {
	can     int
	san     int
	mcsar   uint32
	mcsarOK bool
}

// NewDreamRMINT builds the mitigator.
func NewDreamRMINT(cfg DreamRMINTConfig, rng *sim.RNG) (*DreamRMINT, error) {
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("core: DreamRMINT needs banks")
	}
	if rng == nil {
		return nil, fmt.Errorf("core: DreamRMINT needs an RNG")
	}
	w := cfg.WOverride
	if w == 0 {
		if cfg.TRH < 2*security.ATMTH+20 {
			return nil, fmt.Errorf("core: DreamRMINT T_RH %d too small", cfg.TRH)
		}
		if cfg.UseATM {
			w = security.ATMWindow(cfg.TRH, security.ATMTH)
		} else {
			w = security.RevisedMINTWindow(cfg.TRH)
		}
	}
	d := &DreamRMINT{
		w:     w,
		kind:  cfg.Kind,
		rng:   rng,
		banks: make([]dreamMintBank, cfg.Banks),
		dar:   make([]darMirror, cfg.Banks),
	}
	for i := range d.banks {
		d.banks[i].san = rng.Intn(w)
	}
	if cfg.UseATM {
		d.atm = newATM(cfg.Banks)
	}
	if cfg.UseRMAQ {
		d.rmaq = make([]*RMAQ, cfg.Banks)
		for i := range d.rmaq {
			d.rmaq[i] = NewRMAQ(security.RMAQEntries(w))
		}
	}
	return d, nil
}

// Window reports the operating window size.
func (t *DreamRMINT) Window() int { return t.w }

// OnActivate implements memctrl.Mitigator (Listing 2 plus ATM and RMAQ).
func (t *DreamRMINT) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	st := &t.banks[bank]
	var d memctrl.Decision
	flushed := false

	if t.atm != nil && t.atm.onActivate(bank, row, t.dar[bank]) {
		d.PreOps = append(d.PreOps, t.kind.drfmOp(bank))
		t.ATMDRFMs++
		flushed = true
	}

	if st.can == st.san {
		// This activation is the window's selection.
		switch {
		case t.rmaq != nil && t.rmaq[bank].Blocked(row):
			// Rate limit: the row was sampled within the last 2·tREFI.
			t.rmaq[bank].Skips++
			t.RMAQSkips++
		case !t.dar[bank].valid:
			// Implicit-Sampling into the free DAR at the natural close.
			d.Sample = true
			t.Selections++
			t.recordRMAQ(bank, row)
		default:
			// DAR busy: buffer in the MC-SAR for end-of-window handling.
			st.mcsar = row
			st.mcsarOK = true
			t.Selections++
			t.recordRMAQ(bank, row)
		}
	}
	st.can++

	if st.can == t.w {
		// Window boundary: handle it on the W-th activation itself so the
		// flush overlaps this request's dwell time instead of stalling the
		// next window's first request.
		st.can = 0
		st.san = t.rng.Intn(t.w)
		if st.mcsarOK {
			// Explicit sampling: one DRFM flushes the whole set's DARs,
			// then every waiting MC-SAR in the set loads its DAR.
			d.CloseNow = true
			if !flushed {
				d.PostOps = append(d.PostOps, t.kind.drfmOp(bank))
			}
			t.WindowDRFMs++
			for _, b2 := range t.kind.sameSet(bank, len(t.banks)) {
				st2 := &t.banks[b2]
				if st2.mcsarOK {
					d.PostOps = append(d.PostOps, memctrl.Op{
						Kind: memctrl.OpExplicitSample, Bank: b2, Row: st2.mcsar,
					})
					st2.mcsarOK = false
				}
			}
		}
	}
	return d
}

func (t *DreamRMINT) recordRMAQ(bank int, row uint32) {
	if t.rmaq != nil {
		t.rmaq[bank].Record(row)
	}
}

// OnSampled implements memctrl.Mitigator (both implicit Pre+Sample commits
// and explicit-sampling ops report here, in execution order).
func (t *DreamRMINT) OnSampled(now Tick, bank int, row uint32) {
	t.dar[bank] = darMirror{valid: true, row: row}
	if t.atm != nil {
		t.atm.onDARCleared(bank)
	}
}

// OnMitigations implements memctrl.Mitigator.
func (t *DreamRMINT) OnMitigations(now Tick, mits []dram.Mitigation) {
	for _, m := range mits {
		t.dar[m.Bank] = darMirror{}
		if t.atm != nil {
			t.atm.onDARCleared(m.Bank)
		}
	}
}

// OnRefresh implements memctrl.Mitigator: each REF marks one tREFI epoch
// for the rate-limit queues.
func (t *DreamRMINT) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	for _, q := range t.rmaq {
		q.Tick()
	}
	return nil
}

// StorageBits implements memctrl.Mitigator.
func (t *DreamRMINT) StorageBits() int64 {
	perBank := int64(7 + 7 + security.RowAddrBits + 1) // CAN, SAN, MC-SAR
	bits := int64(len(t.banks))*perBank + int64(len(t.dar))*(security.RowAddrBits+1)
	if t.atm != nil {
		bits += t.atm.storageBits()
	}
	for _, q := range t.rmaq {
		bits += q.storageBits()
	}
	return bits + 64
}
