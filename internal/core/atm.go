package core

import "repro/internal/security"

// atm implements Active Target-row Monitoring for one sub-channel: per
// bank, a copy of the sampled row and a counter of activations it received
// while awaiting DRFM. With ATM the extra activations a delayed DRFM can
// leak are bounded by security.ATMTH, so the underlying trackers keep
// parameters close to their coupled versions (Table 4).
type atm struct {
	counts []uint32

	// Triggers counts ATM-forced DRFMs.
	Triggers uint64
}

func newATM(banks int) *atm {
	return &atm{counts: make([]uint32, banks)}
}

// onActivate is called for every demand activation; it reports whether the
// DAR of bank must be flushed now because the sampled row (dar) was hammered
// past the threshold.
func (a *atm) onActivate(bank int, row uint32, dar darMirror) bool {
	if !dar.valid || dar.row != row {
		return false
	}
	a.counts[bank]++
	if a.counts[bank] >= security.ATMTH {
		a.Triggers++
		return true
	}
	return false
}

// onDARCleared resets the monitor when a bank's DAR is mitigated or
// re-sampled.
func (a *atm) onDARCleared(bank int) { a.counts[bank] = 0 }

// storageBits: per bank, a counter wide enough for ATM-TH plus the mirror
// row address and valid bit — the "3 bytes per bank" of §4.4.
func (a *atm) storageBits() int64 {
	return int64(len(a.counts)) * security.ATMBitsPerBank
}
