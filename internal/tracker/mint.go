package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
)

// MINT is the windowed probabilistic tracker [Qureshi+, MICRO'24] adapted
// to the memory controller (§2.4, Figure 6). Per bank, each window of W
// activations (security.MINTWindow) URAND-selects one position; the row
// activated at that position is buffered in an MC-side Selected Address
// Register (SAR) — sampling at selection time would leak the selection
// through the mitigation timing channel — and mitigated when the window
// expires, via Explicit-Sampling into the DAR followed by a DRFM. Sampling
// and mitigation stay coupled at the window boundary.
type MINT struct {
	w    int
	mode Mode
	rng  *sim.RNG

	banks []mintBank

	// Selections counts window selections that reached mitigation.
	Selections uint64
}

type mintBank struct {
	can      int // current activation number within the window
	san      int // selected activation number
	sar      uint32
	sarValid bool
}

// NewMINT builds a coupled MINT tracker with window w over banks banks.
func NewMINT(w int, banks int, mode Mode, rng *sim.RNG) (*MINT, error) {
	if w <= 0 {
		return nil, fmt.Errorf("tracker: MINT window %d must be positive", w)
	}
	if banks <= 0 {
		return nil, fmt.Errorf("tracker: MINT needs banks")
	}
	if rng == nil {
		return nil, fmt.Errorf("tracker: MINT needs an RNG")
	}
	t := &MINT{w: w, mode: mode, rng: rng, banks: make([]mintBank, banks)}
	for i := range t.banks {
		t.banks[i].san = rng.Intn(w)
	}
	return t, nil
}

// Name implements memctrl.Mitigator.
func (t *MINT) Name() string { return fmt.Sprintf("MINT(W=%d,%s)", t.w, t.mode) }

// OnActivate implements memctrl.Mitigator. The window's mitigation is
// attached to the W-th activation itself (its row closes and the
// Explicit-Sampling + DRFM run right after its column access), so the
// mitigation overlaps the requester's compute time instead of stalling the
// first request of the next window — the behaviour the paper's NRR/DRFM
// slowdown comparison assumes.
func (t *MINT) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	st := &t.banks[bank]
	var d memctrl.Decision
	if st.can == st.san {
		st.sar = row
		st.sarValid = true
	}
	st.can++
	if st.can == t.w {
		// Window complete: mitigate the buffered selection now (coupled).
		st.can = 0
		st.san = t.rng.Intn(t.w)
		if st.sarValid {
			t.Selections++
			d.CloseNow = true
			if t.mode == ModeNRR {
				d.PostOps = []memctrl.Op{{Kind: memctrl.OpNRR, Bank: bank, Row: st.sar}}
			} else {
				// Explicit-Sampling of SAR into the DAR, then DRFM.
				d.PostOps = []memctrl.Op{
					{Kind: memctrl.OpExplicitSample, Bank: bank, Row: st.sar},
					t.mode.drfmOp(bank),
				}
			}
			st.sarValid = false
		}
	}
	return d
}

// OnSampled implements memctrl.Mitigator.
func (t *MINT) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *MINT) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator.
func (t *MINT) OnRefresh(Tick, uint64) []memctrl.Op { return nil }

// StorageBits implements memctrl.Mitigator: per bank, CAN and SAN counters
// (7 bits each for W ≤ 128) plus the SAR row address and a valid bit.
func (t *MINT) StorageBits() int64 {
	return int64(len(t.banks)) * (7 + 7 + security.RowAddrBits + 1)
}
