package dram

import (
	"fmt"
)

// BanksPerGroup is the DDR5 bank-group width: 32 banks = 8 groups x 4.
const BanksPerGroup = 4

// NumGroups is the number of bankgroups in a sub-channel.
const NumGroups = 8

// Mitigation records one victim-refresh performed by the device, reported to
// the controller so trackers and the security auditor can observe it.
type Mitigation struct {
	Bank int
	Row  uint32
}

// SubChannel models one DDR5 sub-channel: 32 banks, a shared 32-bit data
// bus, and the DRFM machinery. All times are absolute simulation ticks.
//
// Bank state lives in struct-of-arrays form owned by the sub-channel: the
// memory controller's scheduler scans every bank's open row and ready
// horizons on each pick, so each field is one contiguous array the scan
// walks linearly instead of hopping between per-bank structs. The ready*
// arrays store effective earliest-legal command times with any full-bank
// stall already folded in (see bank.go), making each scheduler query a
// single indexed load.
type SubChannel struct {
	Timings Timings

	// openRow[b] is the row in bank b's row buffer, or NoRow.
	openRow []int64
	// busyUntil[b] is the end of any full-bank stall (REF, NRR, DRFM).
	busyUntil []Tick
	// readyAct/readyCol/readyPre are the effective earliest-legal times for
	// ACT, RD/WR (bank-local: excluding the shared data bus), and PRE.
	readyAct []Tick
	readyCol []Tick
	readyPre []Tick
	// darValid/darRow are the per-bank DRFM Address Registers.
	darValid []bool
	darRow   []uint32
	// bankActs/bankMits are per-bank command stats (see the Bank view).
	bankActs []uint64
	bankMits []uint64

	// busFreeAt is when the shared data bus next becomes free.
	busFreeAt Tick

	// all is the precomputed 0..banks-1 index set used by the nil-set
	// (all-bank) command paths. Per-instance so concurrent sub-channels
	// never share mutable state.
	all []int
	// sameBank[k] is the cached DRFMsb target set for bank-position k: the
	// bank with index k within each bankgroup (§2.5). Computed once so the
	// per-mitigation SameBankSet call allocates nothing.
	sameBank [][]int

	// Stats.
	Reads, Writes   uint64
	Refreshes       uint64
	NRRs            uint64
	DRFMsbs         uint64
	DRFMabs         uint64
	RLPSum          uint64 // rows mitigated, summed over DRFM commands
	BusBusy         Tick   // accumulated data-bus occupancy
	MitigationCount uint64
}

// NewSubChannel builds a sub-channel with banks banks (must be a multiple of
// BanksPerGroup).
func NewSubChannel(t Timings, banks int) (*SubChannel, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if banks <= 0 || banks%BanksPerGroup != 0 {
		return nil, fmt.Errorf("dram: bank count %d not a multiple of %d", banks, BanksPerGroup)
	}
	s := &SubChannel{
		Timings:   t,
		openRow:   make([]int64, banks),
		busyUntil: make([]Tick, banks),
		readyAct:  make([]Tick, banks),
		readyCol:  make([]Tick, banks),
		readyPre:  make([]Tick, banks),
		darValid:  make([]bool, banks),
		darRow:    make([]uint32, banks),
		bankActs:  make([]uint64, banks),
		bankMits:  make([]uint64, banks),
		all:       make([]int, banks),
		sameBank:  make([][]int, BanksPerGroup),
	}
	for i := range s.openRow {
		s.openRow[i] = NoRow
		s.all[i] = i
	}
	for k := range s.sameBank {
		s.sameBank[k] = DRFMsbSet(k, banks)
	}
	return s, nil
}

// DRFMsbSet lists the banks a DRFMsb aimed at bank b stalls and mitigates
// in a sub-channel of banks banks: the bank with b's index within each
// bankgroup (§2.5).
func DRFMsbSet(b, banks int) []int {
	set := make([]int, 0, banks/BanksPerGroup)
	for g := 0; g < banks/BanksPerGroup; g++ {
		set = append(set, g*BanksPerGroup+b%BanksPerGroup)
	}
	return set
}

// NumBanks reports the bank count.
func (s *SubChannel) NumBanks() int { return len(s.openRow) }

// --- earliest-legal queries -------------------------------------------------

// OpenRow reports the row in bank b's row buffer, or NoRow.
func (s *SubChannel) OpenRow(b int) int64 { return s.openRow[b] }

// EarliestActivate reports when an ACT to bank b would be legal (the bank
// must already be, or become, precharged by then; an open row makes ACT
// illegal regardless of time).
func (s *SubChannel) EarliestActivate(b int) Tick { return s.readyAct[b] }

// EarliestColumnLocal reports when a RD/WR to bank b's open row would be
// legal considering only bank-local horizons — the shared data bus is
// excluded. Schedulers use it to build aggregates that stay valid until a
// bank-local event, applying the bus horizon at query time.
func (s *SubChannel) EarliestColumnLocal(b int) Tick { return s.readyCol[b] }

// EarliestColumn reports when a RD/WR to bank b's open row would be legal,
// including data-bus availability.
func (s *SubChannel) EarliestColumn(b int) Tick {
	e := s.readyCol[b]
	// The data burst starts TCL after the command; the bus must be free then.
	if busReady := s.busFreeAt - s.Timings.TCL; busReady > e {
		e = busReady
	}
	return e
}

// EarliestPrecharge reports when a PRE to bank b would be legal.
func (s *SubChannel) EarliestPrecharge(b int) Tick { return s.readyPre[b] }

// idle reports whether bank b is precharged and past any stall at time now.
func (s *SubChannel) idle(b int, now Tick) bool {
	return s.openRow[b] == NoRow && now >= s.busyUntil[b]
}

// EarliestAllIdle reports the earliest time at which every bank in set (nil =
// all banks) is precharged and unstalled, assuming no further commands. Banks
// with open rows make this Forever; the controller must close them first.
func (s *SubChannel) EarliestAllIdle(set []int) (Tick, bool) {
	var t Tick
	idx := set
	if idx == nil {
		idx = s.all
	}
	for _, b := range idx {
		if s.openRow[b] != NoRow {
			return 0, false
		}
		if s.busyUntil[b] > t {
			t = s.busyUntil[b]
		}
	}
	return t, true
}

// SameBankSet returns the DRFMsb target set for bank b (DRFMsbSet, cached
// per sub-channel). The returned slice is shared and must not be mutated.
func (s *SubChannel) SameBankSet(b int) []int {
	return s.sameBank[b%BanksPerGroup]
}

// --- commands ----------------------------------------------------------------

// Activate issues ACT(row) to bank b at time now.
func (s *SubChannel) Activate(now Tick, b int, row uint32) error {
	return s.activate(now, b, row)
}

// Read issues a column read at now; it returns the time the data has fully
// returned (last beat on the bus).
func (s *SubChannel) Read(now Tick, b int) (done Tick, err error) {
	done, err = s.column(now, b)
	if err == nil {
		s.Reads++
	}
	return done, err
}

// Write issues a column write at now; it returns the time the bank/bus are
// done with the burst.
func (s *SubChannel) Write(now Tick, b int) (done Tick, err error) {
	done, err = s.column(now, b)
	if err == nil {
		s.Writes++
	}
	return done, err
}

func (s *SubChannel) column(now Tick, b int) (Tick, error) {
	if start := s.busFreeAt - s.Timings.TCL; now < start {
		return 0, fmt.Errorf("dram: column at %v would overlap busy data bus (free at %v)", now, s.busFreeAt)
	}
	done, err := s.bankColumn(now, b)
	if err != nil {
		return 0, err
	}
	s.busFreeAt = done
	s.BusBusy += s.Timings.TBUS
	return done, nil
}

// Precharge issues PRE (sample=false) or Pre+Sample (sample=true) to bank b.
func (s *SubChannel) Precharge(now Tick, b int, sample bool) error {
	return s.precharge(now, b, sample)
}

// Refresh issues an all-bank REF at now. Every bank must be precharged and
// unstalled. All banks are blocked for tRFC.
func (s *SubChannel) Refresh(now Tick) error {
	ready, ok := s.EarliestAllIdle(nil)
	if !ok {
		return fmt.Errorf("dram: REF with open row")
	}
	if now < ready {
		return fmt.Errorf("dram: REF at %v before banks idle at %v", now, ready)
	}
	end := now + s.Timings.TRFC
	for b := range s.openRow {
		s.stall(b, end)
	}
	s.Refreshes++
	return nil
}

// NRR issues the hypothetical Nearby-Row-Refresh for (bank, row): the single
// bank is blocked for tNRR while the device refreshes the row's victims.
// The bank must be precharged and unstalled.
func (s *SubChannel) NRR(now Tick, b int, row uint32) ([]Mitigation, error) {
	if !s.idle(b, now) {
		return nil, fmt.Errorf("dram: NRR to non-idle bank %d at %v", b, now)
	}
	s.stall(b, now+s.Timings.TNRR)
	s.bankMits[b]++
	s.NRRs++
	s.MitigationCount++
	return []Mitigation{{Bank: b, Row: row}}, nil
}

// DRFMsb issues a same-bank DRFM targeting the bank-position of b: the same
// bank in all 8 bankgroups stalls for tDRFMsb; each stalled bank with a
// valid DAR gets its DAR row mitigated and the DAR invalidated.
func (s *SubChannel) DRFMsb(now Tick, b int) ([]Mitigation, error) {
	return s.drfm(now, s.SameBankSet(b), s.Timings.TDRFMsb, &s.DRFMsbs)
}

// DRFMab issues an all-bank DRFM: all 32 banks stall for tDRFMab; every
// valid DAR is mitigated and invalidated.
func (s *SubChannel) DRFMab(now Tick) ([]Mitigation, error) {
	return s.drfm(now, nil, s.Timings.TDRFMab, &s.DRFMabs)
}

func (s *SubChannel) drfm(now Tick, set []int, dur Tick, counter *uint64) ([]Mitigation, error) {
	idx := set
	if idx == nil {
		idx = s.all
	}
	ready, ok := s.EarliestAllIdle(idx)
	if !ok {
		return nil, fmt.Errorf("dram: DRFM with open row in target set")
	}
	if now < ready {
		return nil, fmt.Errorf("dram: DRFM at %v before banks idle at %v", now, ready)
	}
	end := now + dur
	var mits []Mitigation
	for _, b := range idx {
		s.stall(b, end)
		if s.darValid[b] {
			mits = append(mits, Mitigation{Bank: b, Row: s.darRow[b]})
			s.darValid[b] = false
			s.darRow[b] = 0
			s.bankMits[b]++
		}
	}
	*counter++
	s.RLPSum += uint64(len(mits))
	s.MitigationCount += uint64(len(mits))
	return mits, nil
}

// ValidDARs reports how many banks in set (nil = all) currently hold a valid
// DAR — the RLP a DRFM over that set would achieve right now.
func (s *SubChannel) ValidDARs(set []int) int {
	idx := set
	if idx == nil {
		idx = s.all
	}
	n := 0
	for _, b := range idx {
		if s.darValid[b] {
			n++
		}
	}
	return n
}

// BusFreeAt reports when the shared data bus becomes free.
func (s *SubChannel) BusFreeAt() Tick { return s.busFreeAt }

// BankActivations returns a copy of the per-bank ACT counters (demand plus
// explicit-sample dummy activations).
func (s *SubChannel) BankActivations() []uint64 {
	return append([]uint64(nil), s.bankActs...)
}

// BankMitigations returns a copy of the per-bank victim-refresh counters.
func (s *SubChannel) BankMitigations() []uint64 {
	return append([]uint64(nil), s.bankMits...)
}

// AverageRLP reports mitigated rows per DRFM command issued so far.
func (s *SubChannel) AverageRLP() float64 {
	n := s.DRFMsbs + s.DRFMabs
	if n == 0 {
		return 0
	}
	return float64(s.RLPSum) / float64(n)
}
