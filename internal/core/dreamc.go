package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
)

// Grouping selects how rows from different banks form a gang sharing one
// DREAM Counter Table entry (§5.2).
type Grouping int

// Grouping functions.
const (
	// GroupSetAssociative aggregates the same RowID across banks — simple,
	// but MOP-style mappings stripe hot OS pages across banks at the same
	// RowID, producing hot counters (Figure 13a).
	GroupSetAssociative Grouping = iota
	// GroupRandomized XORs each bank's RowID with a per-bank boot-time
	// random mask, breaking the spatial correlation (Figure 13b).
	GroupRandomized
)

// String implements fmt.Stringer.
func (g Grouping) String() string {
	if g == GroupRandomized {
		return "randomized"
	}
	return "set-assoc"
}

// DreamCConfig configures DREAM-C. The vertical-sharing factor V (§5.5) is
// derived from TRH: the gang holds V rows per bank (gang size 32·V,
// security.DreamCGangSize) and mitigation issues V DRFMab rounds. Table 6:
// V = 1/2/4/8 for T_RH = 125/250/500/1000.
type DreamCConfig struct {
	TRH         int
	Banks       int // 32
	RowsPerBank int // 128 K
	Grouping    Grouping
	// EntryMult multiplies the DCT entry count (DREAM-C "2x storage" in
	// Figures 17 and 22); with mult m each counter is shared by banks
	// whose index ≡ k (mod m), shrinking gangs to 32·V/m rows.
	EntryMult int
	// TTHOverride replaces the default T_RH/2 tracker threshold (the
	// WindowScale mechanism passes a scaled value for short runs).
	TTHOverride uint32
	// ResetPeriod is the number of REFs per full DCT reset sweep
	// (memctrl.RefsPerWindow unscaled; §5.4 resets 16 of 128 K entries per
	// REF).
	ResetPeriod uint64
	// UseRMAQ enables the §6.3 per-sub-channel 18-entry GroupID RMAQ that
	// enforces the DRFM rate limit.
	UseRMAQ bool
}

// DreamC is the paper's counter-based contribution (§5): an untagged table
// of shared counters (the DCT), one per gang of rows mitigated together by
// DRFMab. On an activation the gang counter is compared against
// T_TH = T_RH/2; at the threshold the MC populates all DARs with explicit
// samples and issues V back-to-back DRFMab commands, then restarts the
// counter at 1. Sixteen (scaled) DCT entries reset at every REF so counter
// lifetimes spread across the refresh window.
type DreamC struct {
	cfg      DreamCConfig
	tth      uint32
	vertical int
	entries  int
	vshift   uint
	masks    []uint32
	dct      []uint32

	resetChunk  int
	resetCursor int

	rmaq *RMAQ

	// Mitigations counts gang mitigations; RMAQSkips counts rate-limited
	// skips.
	Mitigations uint64
	RMAQSkips   uint64
}

// NewDreamC builds the tracker. Masks are drawn from rng at "boot".
func NewDreamC(cfg DreamCConfig, rng *sim.RNG) (*DreamC, error) {
	if cfg.Banks <= 0 || cfg.RowsPerBank <= 0 {
		return nil, fmt.Errorf("core: DreamC needs geometry")
	}
	vertical := security.DreamCGangSize(cfg.TRH) / security.BanksPerSubChannel
	if vertical > cfg.RowsPerBank {
		return nil, fmt.Errorf("core: DreamC vertical factor %d exceeds %d rows", vertical, cfg.RowsPerBank)
	}
	if cfg.EntryMult == 0 {
		cfg.EntryMult = 1
	}
	if cfg.EntryMult < 1 || cfg.Banks%cfg.EntryMult != 0 {
		return nil, fmt.Errorf("core: DreamC entry multiplier %d invalid for %d banks", cfg.EntryMult, cfg.Banks)
	}
	tth := cfg.TTHOverride
	if tth == 0 {
		if cfg.TRH < 4 {
			return nil, fmt.Errorf("core: DreamC T_RH %d too small", cfg.TRH)
		}
		tth = uint32(cfg.TRH / 2)
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	vshift := uint(0)
	for v := vertical; v > 1; v >>= 1 {
		vshift++
	}
	entries := cfg.RowsPerBank / vertical * cfg.EntryMult
	d := &DreamC{
		cfg:      cfg,
		tth:      tth,
		vertical: vertical,
		entries:  entries,
		vshift:   vshift,
		masks:    make([]uint32, cfg.Banks),
		dct:      make([]uint32, entries),
	}
	if cfg.Grouping == GroupRandomized {
		if rng == nil {
			return nil, fmt.Errorf("core: randomized grouping needs an RNG")
		}
		for b := range d.masks {
			d.masks[b] = rng.Uint32() & uint32(cfg.RowsPerBank-1)
		}
	}
	d.resetChunk = int((uint64(entries) + cfg.ResetPeriod - 1) / cfg.ResetPeriod)
	if d.resetChunk < 1 {
		d.resetChunk = 1
	}
	if cfg.UseRMAQ {
		d.rmaq = NewRMAQ(18)
	}
	return d, nil
}

// Name implements memctrl.Mitigator.
func (t *DreamC) Name() string {
	return fmt.Sprintf("DREAM-C(gang=%d,%s,TTH=%d,x%d)",
		t.cfg.Banks*t.vertical/t.cfg.EntryMult, t.cfg.Grouping, t.tth, t.cfg.EntryMult)
}

// Index returns the DCT entry for an activation of (bank, row).
func (t *DreamC) Index(bank int, row uint32) int {
	base := int((row^t.masks[bank])>>t.vshift) * t.cfg.EntryMult
	return base + bank%t.cfg.EntryMult
}

// GangRows lists, per mitigation round, the row each bank must sample for
// DCT entry idx. Banks outside the entry's share (EntryMult > 1) are marked
// memctrl.SkipRow.
func (t *DreamC) GangRows(idx int) [][]uint32 {
	rounds := make([][]uint32, t.vertical)
	base := uint32(idx/t.cfg.EntryMult) << t.vshift
	share := idx % t.cfg.EntryMult
	for v := 0; v < t.vertical; v++ {
		rows := make([]uint32, t.cfg.Banks)
		for b := 0; b < t.cfg.Banks; b++ {
			if b%t.cfg.EntryMult != share {
				rows[b] = memctrl.SkipRow
				continue
			}
			rows[b] = (base + uint32(v)) ^ t.masks[b]
		}
		rounds[v] = rows
	}
	return rounds
}

// OnActivate implements memctrl.Mitigator (§5.4 operation).
func (t *DreamC) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	idx := t.Index(bank, row)
	if t.dct[idx] < t.tth {
		t.dct[idx]++
		return memctrl.Decision{}
	}
	if t.rmaq != nil && t.rmaq.Blocked(uint32(idx)) {
		// DRFM rate limit: this gang was mitigated within 2·tREFI; hold the
		// counter at the threshold and retry on the next activation.
		t.RMAQSkips++
		return memctrl.Decision{}
	}
	t.Mitigations++
	if t.rmaq != nil {
		t.rmaq.Record(uint32(idx))
	}
	t.dct[idx] = 1
	return memctrl.Decision{
		PreOps: []memctrl.Op{{Kind: memctrl.OpGangMitigate, GangRows: t.GangRows(idx)}},
	}
}

// OnSampled implements memctrl.Mitigator.
func (t *DreamC) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *DreamC) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator: the rolling DCT reset sweep
// (16 entries per REF at default scale) plus RMAQ epoch ticks.
func (t *DreamC) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	for i := 0; i < t.resetChunk; i++ {
		t.dct[t.resetCursor] = 0
		t.resetCursor++
		if t.resetCursor == t.entries {
			t.resetCursor = 0
		}
	}
	if t.rmaq != nil {
		t.rmaq.Tick()
	}
	return nil
}

// StorageBits implements memctrl.Mitigator: DCT counters sized for the
// *unscaled* threshold plus the per-bank random masks — Table 6's budgets
// (1 KB/bank at T_RH = 500).
func (t *DreamC) StorageBits() int64 {
	ctrBits := bitsFor(uint64(t.cfg.TRH / 2))
	bits := int64(t.entries) * int64(ctrBits)
	if t.cfg.Grouping == GroupRandomized {
		bits += int64(t.cfg.Banks) * security.RowAddrBits
	}
	if t.rmaq != nil {
		bits += t.rmaq.storageBits()
	}
	return bits
}

// Counter reports the DCT entry value (test hook).
func (t *DreamC) Counter(idx int) uint32 { return t.dct[idx] }

// Entries reports the DCT size.
func (t *DreamC) Entries() int { return t.entries }

// Mask reports bank b's grouping mask (test hook).
func (t *DreamC) Mask(b int) uint32 { return t.masks[b] }

func bitsFor(v uint64) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
