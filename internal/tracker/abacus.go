package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// ABACuS is the all-bank activation-counter tracker [Olgun+, USENIX Sec'24]
// the paper compares against in §5.8. One table entry per RowID is shared by
// the same RowID across all banks; a Sibling Activation Vector (SAV, one bit
// per bank) filters the streaming pattern where every bank touches the same
// RowID once: an activation whose SAV bit is clear only sets the bit, while
// an activation whose SAV bit is already set increments the Row Activation
// Counter (RAC) and resets the SAV to just this bank.
//
// When the RAC reaches the tracker threshold, the RowID is mitigated in all
// banks with a DREAM-C-style round: 32 explicit samples plus one DRFMab
// (the paper's ABACuS-Big uses all-bank refresh management the same way).
type ABACuS struct {
	banks int
	tth   uint32
	rows  int

	rac []uint32
	sav []uint32

	resetPeriod uint64

	// Selections counts threshold crossings.
	Selections uint64
}

// ABACuSConfig configures the tracker.
type ABACuSConfig struct {
	TRH         int
	Banks       int // 32
	Rows        int // rows per bank (128 K) = table entries
	ResetPeriod uint64
	// TTHOverride replaces the default T_RH/2 threshold (used by the
	// WindowScale mechanism for short runs); 0 keeps the default.
	TTHOverride uint32
}

// NewABACuS builds the tracker.
func NewABACuS(cfg ABACuSConfig) (*ABACuS, error) {
	if cfg.Banks <= 0 || cfg.Banks > 32 {
		return nil, fmt.Errorf("tracker: ABACuS bank count %d out of range", cfg.Banks)
	}
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("tracker: ABACuS needs rows")
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	tth := cfg.TTHOverride
	if tth == 0 {
		if cfg.TRH < 4 {
			return nil, fmt.Errorf("tracker: ABACuS T_RH %d too small", cfg.TRH)
		}
		tth = uint32(cfg.TRH / 2)
	}
	return &ABACuS{
		banks:       cfg.Banks,
		tth:         tth,
		rows:        cfg.Rows,
		rac:         make([]uint32, cfg.Rows),
		sav:         make([]uint32, cfg.Rows),
		resetPeriod: cfg.ResetPeriod,
	}, nil
}

// Name implements memctrl.Mitigator.
func (t *ABACuS) Name() string { return fmt.Sprintf("ABACuS(TTH=%d)", t.tth) }

// OnActivate implements memctrl.Mitigator.
func (t *ABACuS) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	bit := uint32(1) << uint(bank)
	if t.sav[row]&bit == 0 {
		// First sibling activation since the last RAC bump: filtered.
		t.sav[row] |= bit
		return memctrl.Decision{}
	}
	t.rac[row]++
	t.sav[row] = bit
	if t.rac[row] < t.tth {
		return memctrl.Decision{}
	}
	// Mitigate this RowID in every bank.
	t.rac[row] = 0
	t.sav[row] = 0
	t.Selections++
	rows := make([]uint32, t.banks)
	for b := range rows {
		rows[b] = row
	}
	return memctrl.Decision{
		PreOps: []memctrl.Op{{Kind: memctrl.OpGangMitigate, GangRows: [][]uint32{rows}}},
	}
}

// OnSampled implements memctrl.Mitigator.
func (t *ABACuS) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *ABACuS) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator: counters reset once per (scaled)
// refresh window.
func (t *ABACuS) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	if refIndex > 0 && refIndex%t.resetPeriod == 0 {
		for i := range t.rac {
			t.rac[i] = 0
			t.sav[i] = 0
		}
	}
	return nil
}

// StorageBits implements memctrl.Mitigator: one entry per row with a RAC
// sized for T_TH plus a 32-bit SAV — the 5.33x SAV overhead §5.8 quotes
// (19 KB/bank at T_RH = 125).
func (t *ABACuS) StorageBits() int64 {
	return int64(t.rows) * int64(bitsFor(uint64(t.tth))+t.banks)
}

// RAC reports the counter for row (test hook).
func (t *ABACuS) RAC(row uint32) uint32 { return t.rac[row] }

// SAV reports the sibling vector for row (test hook).
func (t *ABACuS) SAV(row uint32) uint32 { return t.sav[row] }
