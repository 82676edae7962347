package core

import "repro/internal/security"

// RMAQ is the Recently-Mitigated-Address Queue of §6.1: a small per-bank
// FIFO that enforces JEDEC's DRFM rate limit (a row may be mitigated at most
// once per 2·tREFI). Each entry holds a row address and the tREFI epoch it
// was sampled in; a selection that hits a young entry is skipped.
type RMAQ struct {
	entries []rmaqEntry
	size    int
	epoch   uint64

	// Skips counts selections suppressed by the rate limit.
	Skips uint64
}

type rmaqEntry struct {
	valid bool
	row   uint32
	epoch uint64
}

// NewRMAQ builds a FIFO of size entries (2–6 depending on the MINT window,
// §6.1: security.RMAQEntries covers one window's worth of re-selections
// inside 2·tREFI).
func NewRMAQ(size int) *RMAQ {
	return &RMAQ{entries: make([]rmaqEntry, size), size: size}
}

// Blocked reports whether row was sampled within the last two tREFI.
func (q *RMAQ) Blocked(row uint32) bool {
	for i := range q.entries {
		e := &q.entries[i]
		if e.valid && e.row == row && q.epoch-e.epoch < 2 {
			return true
		}
	}
	return false
}

// Record pushes a freshly sampled row (FIFO, oldest evicted).
func (q *RMAQ) Record(row uint32) {
	copy(q.entries, q.entries[1:])
	q.entries[q.size-1] = rmaqEntry{valid: true, row: row, epoch: q.epoch}
}

// Tick advances the tREFI epoch; entries older than two epochs expire
// naturally via the Blocked age check.
func (q *RMAQ) Tick() { q.epoch++ }

// storageBits: per entry a valid bit, row address, and 2-bit tREFI id — the
// 20 bits/entry of §6.1.
func (q *RMAQ) storageBits() int64 { return int64(q.size) * security.RMAQBitsPerEntry }
