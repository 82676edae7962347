package dram

import "fmt"

// NoRow marks a closed row buffer.
const NoRow int64 = -1

// DAR is a bank's DRFM Address Register: one row address the memory
// controller stored with a Pre+Sample, awaiting a DRFM command (§2.5).
type DAR struct {
	Valid bool
	Row   uint32
}

// Bank is a read-only snapshot of one bank's state, assembled on demand
// from the sub-channel's struct-of-arrays storage (see SubChannel). It
// exists for tests and inspection; the hot paths in memctrl read the
// per-field accessors (OpenRow, EarliestActivate, ...) directly so the
// controller's inner loops walk contiguous arrays instead of chasing
// per-bank pointers.
type Bank struct {
	// OpenRow is the row currently in the row buffer, or NoRow.
	OpenRow int64
	// BusyUntil is the end of any full-bank stall (REF, NRR, DRFM).
	BusyUntil Tick
	// DAR is the bank's DRFM Address Register.
	DAR DAR
	// Activations counts ACT commands issued to this bank.
	Activations uint64
	// Mitigations counts victim-refreshes performed for rows of this bank.
	Mitigations uint64
}

// Bank assembles the snapshot view of bank b. Mutation is via commands.
func (s *SubChannel) Bank(b int) Bank {
	return Bank{
		OpenRow:     s.openRow[b],
		BusyUntil:   s.busyUntil[b],
		DAR:         DAR{Valid: s.darValid[b], Row: s.darRow[b]},
		Activations: s.bankActs[b],
		Mitigations: s.bankMits[b],
	}
}

// The per-bank command primitives below maintain the invariant that the
// ready* arrays always hold the *effective* earliest-legal command times
// (the old per-Bank max(BusyUntil, next<cmd>) folded in at mutation time),
// so every scheduler query is a single contiguous array load.

// activate opens row on bank b at time now.
func (s *SubChannel) activate(now Tick, b int, row uint32) error {
	if s.openRow[b] != NoRow {
		return fmt.Errorf("dram: ACT to bank with open row %d", s.openRow[b])
	}
	if now < s.readyAct[b] {
		return fmt.Errorf("dram: ACT at %v before earliest-legal %v", now, s.readyAct[b])
	}
	t := s.Timings
	s.openRow[b] = int64(row)
	// now >= readyAct >= busyUntil, so the new horizons dominate the stall.
	s.readyAct[b] = now + t.TRC
	s.readyCol[b] = now + t.TRCD
	s.readyPre[b] = now + t.TRAS
	s.bankActs[b]++
	return nil
}

// bankColumn performs a RD/WR burst on bank b issued at now; lastData is
// when the final beat leaves the bus. Precharge must wait for the burst.
func (s *SubChannel) bankColumn(now Tick, b int) (lastData Tick, err error) {
	if s.openRow[b] == NoRow {
		return 0, fmt.Errorf("dram: column access to closed bank")
	}
	if now < s.readyCol[b] {
		return 0, fmt.Errorf("dram: column at %v before earliest-legal %v", now, s.readyCol[b])
	}
	lastData = now + s.Timings.TCL + s.Timings.TBUS
	if lastData > s.readyPre[b] {
		s.readyPre[b] = lastData
	}
	return lastData, nil
}

// precharge closes bank b's row at now; if sample is set the closing row
// address is written into the DAR (Pre+Sample). Pre+Sample of an
// already-valid DAR overwrites it (the MC avoids this in every scheme by
// flushing with DRFM first; the device permits it, as the real device would).
func (s *SubChannel) precharge(now Tick, b int, sample bool) error {
	if s.openRow[b] == NoRow {
		return fmt.Errorf("dram: PRE to closed bank")
	}
	if now < s.readyPre[b] {
		return fmt.Errorf("dram: PRE at %v before earliest-legal %v", now, s.readyPre[b])
	}
	if sample {
		s.darValid[b] = true
		s.darRow[b] = uint32(s.openRow[b])
	}
	s.openRow[b] = NoRow
	if end := now + s.Timings.TRP; end > s.readyAct[b] {
		s.readyAct[b] = end
	}
	return nil
}

// stall blocks bank b until end (REF/NRR/DRFM occupancy). Every command
// class waits out a stall, so all three ready horizons move together.
func (s *SubChannel) stall(b int, end Tick) {
	if end > s.busyUntil[b] {
		s.busyUntil[b] = end
	}
	if end > s.readyAct[b] {
		s.readyAct[b] = end
	}
	if end > s.readyCol[b] {
		s.readyCol[b] = end
	}
	if end > s.readyPre[b] {
		s.readyPre[b] = end
	}
}
