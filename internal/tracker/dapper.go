package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/security"
)

// DAPPER models the performance-attack-resilient tracker [Saxena & Qureshi,
// 2025; PAPERS.md]. The observation it encodes: trackers that mitigate the
// moment a counter crosses its threshold let an attacker convert tracker
// state into a *performance* attack — craft an activation pattern that
// triggers mitigation storms and the mitigations themselves stall the
// channel. DAPPER decouples the two. Detection stays deterministic (a
// per-bank space-saving table, same substrate as Graphene); issuance is
// rate-bounded: rows that cross the threshold are parked in a pending queue
// and serviced only at REF boundaries, at most MitPerRef directed
// mitigations per REF across the sub-channel, no matter what the access
// pattern does. A full pending queue falls back to a coupled mitigation so
// the detection guarantee survives the bound.
type DAPPER struct {
	entries int
	tth     uint32
	banks   []ssTable

	pending   []pendingQ
	mitPerRef int
	rr        int // round-robin bank cursor across REF services

	resetPeriod uint64

	// Queued counts rows parked for REF service; Serviced counts directed
	// mitigations issued at REF; Coupled counts queue-overflow fallbacks.
	Queued   uint64
	Serviced uint64
	Coupled  uint64
}

// pendingQ is one bank's FIFO of rows awaiting a REF mitigation slot.
type pendingQ struct {
	rows []uint32
}

// DAPPERConfig configures the tracker.
type DAPPERConfig struct {
	TRH   int
	Banks int
	// Entries is the per-bank space-saving table size. Zero derives the
	// Graphene-secure size security.GrapheneEntries; experiments pass an
	// equal-storage-budget size instead (security.DAPPEREntries).
	Entries int
	// TTHOverride replaces the default T_RH/2 mitigation threshold
	// (window-scaled in experiments, like Graphene/DREAM-C).
	TTHOverride uint32
	// MitPerRef bounds directed mitigations per REF (default 2).
	MitPerRef int
	// PendingDepth bounds each bank's pending queue (default 8).
	PendingDepth int
	// ResetPeriod is REFs between table resets (default
	// memctrl.RefsPerWindow).
	ResetPeriod uint64
}

// NewDAPPER builds the tracker.
func NewDAPPER(cfg DAPPERConfig) (*DAPPER, error) {
	tth := cfg.TTHOverride
	if tth == 0 {
		if cfg.TRH < 4 {
			return nil, fmt.Errorf("tracker: DAPPER T_RH %d too small", cfg.TRH)
		}
		tth = uint32(cfg.TRH / 2)
	}
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("tracker: DAPPER needs banks")
	}
	if cfg.Entries == 0 {
		cfg.Entries = security.GrapheneEntries(cfg.TRH)
	}
	if cfg.Entries < 1 {
		return nil, fmt.Errorf("tracker: DAPPER needs at least one table entry")
	}
	if cfg.MitPerRef == 0 {
		cfg.MitPerRef = 2
	}
	if cfg.PendingDepth == 0 {
		cfg.PendingDepth = 8
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	d := &DAPPER{
		entries:     cfg.Entries,
		tth:         tth,
		banks:       make([]ssTable, cfg.Banks),
		pending:     make([]pendingQ, cfg.Banks),
		mitPerRef:   cfg.MitPerRef,
		resetPeriod: cfg.ResetPeriod,
	}
	for i := range d.banks {
		d.banks[i].init(cfg.Entries)
		d.pending[i].rows = make([]uint32, 0, cfg.PendingDepth)
	}
	return d, nil
}

// Name implements memctrl.Mitigator.
func (d *DAPPER) Name() string {
	return fmt.Sprintf("DAPPER(K=%d,TTH=%d,M=%d)", d.entries, d.tth, d.mitPerRef)
}

// OnActivate implements memctrl.Mitigator: track, and on threshold park the
// row for a REF mitigation slot instead of mitigating inline. Only a full
// pending queue mitigates immediately — the security fallback an attacker
// pays for by keeping many rows hot at once.
func (d *DAPPER) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	count := d.banks[bank].touch(row)
	if count < d.tth {
		return memctrl.Decision{}
	}
	d.banks[bank].reset(row)
	q := &d.pending[bank]
	for _, r := range q.rows {
		if r == row {
			return memctrl.Decision{} // already awaiting service
		}
	}
	if len(q.rows) < cap(q.rows) {
		q.rows = append(q.rows, row)
		d.Queued++
		return memctrl.Decision{}
	}
	d.Coupled++
	return memctrl.Decision{
		Sample:   true,
		CloseNow: true,
		PostOps:  []memctrl.Op{{Kind: memctrl.OpDRFMsb, Bank: bank}},
	}
}

// OnSampled implements memctrl.Mitigator.
func (d *DAPPER) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (d *DAPPER) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator: service up to MitPerRef pending
// rows per REF as directed mitigations (explicit sample + DRFMsb, the
// DREAM-R issue path), round-robin across banks so no bank starves; reset
// tables once per scaled window.
func (d *DAPPER) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	if refIndex > 0 && refIndex%d.resetPeriod == 0 {
		for i := range d.banks {
			d.banks[i].clear()
			d.pending[i].rows = d.pending[i].rows[:0]
		}
		return nil
	}
	var ops []memctrl.Op
	n := len(d.pending)
	for scanned, issued := 0, 0; scanned < n && issued < d.mitPerRef; scanned++ {
		bank := d.rr
		d.rr = (d.rr + 1) % n
		q := &d.pending[bank]
		if len(q.rows) == 0 {
			continue
		}
		row := q.rows[0]
		q.rows = append(q.rows[:0], q.rows[1:]...)
		d.Serviced++
		issued++
		ops = append(ops,
			memctrl.Op{Kind: memctrl.OpExplicitSample, Bank: bank, Row: row},
			memctrl.Op{Kind: memctrl.OpDRFMsb, Bank: bank},
		)
	}
	return ops
}

// StorageBits implements memctrl.Mitigator: the space-saving tables (as
// Graphene) plus the pending queues (row tag per slot).
func (d *DAPPER) StorageBits() int64 {
	ctrBits := bitsFor(uint64(d.tth))
	perBank := int64(d.entries) * int64(security.RowAddrBits+ctrBits)
	var bits int64
	for i := range d.pending {
		bits += perBank + int64(cap(d.pending[i].rows))*int64(security.RowAddrBits)
	}
	return bits
}

// ObsGauges implements obs.Gauger (structurally — no obs import needed).
func (d *DAPPER) ObsGauges() map[string]float64 {
	return map[string]float64{
		"queued":           float64(d.Queued),
		"serviced":         float64(d.Serviced),
		"coupled-fallback": float64(d.Coupled),
		"entries-per-bank": float64(d.entries),
	}
}
