package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rowtable"
	"repro/internal/security"
	"repro/internal/sim"
)

// ProbPolicy selects how a ProbTracker manages its table probabilistically
// [probabilistic tracker-management policies, Jaleel+; PAPERS.md]: instead
// of deterministically admitting every new row (which forces Graphene-sized
// tables for the space-saving guarantee), a small table admits or recycles
// entries by coin flip. The guarantee becomes probabilistic — an aggressor
// dodges tracking only by repeatedly losing independent Bernoulli trials —
// which buys an order-of-magnitude smaller table at an explicit failure
// budget, the same trade PARA makes against counters.
type ProbPolicy int

// Policies.
const (
	// ProbInsert admits untracked rows with probability PInsert; once
	// tracked, counting is exact. A full table admits by displacing the
	// minimum-count entry.
	ProbInsert ProbPolicy = iota
	// ProbReplace admits untracked rows always while the table has room,
	// but recycles a full table's minimum-count entry only with probability
	// PReplace (attackers cannot churn the table for free).
	ProbReplace
	// ProbHybrid composes both: probabilistic admission and probabilistic
	// recycling.
	ProbHybrid
)

// String implements fmt.Stringer.
func (p ProbPolicy) String() string {
	switch p {
	case ProbInsert:
		return "insert"
	case ProbReplace:
		return "replace"
	case ProbHybrid:
		return "hybrid"
	default:
		return "policy(?)"
	}
}

// Default policy probabilities. They are compile-time constants — baked into
// the registered scheme names' meaning — so "prob-insert" remains a complete
// content identity.
const (
	// PInsert is the admission probability for untracked rows.
	PInsert = 1.0 / 8
	// PReplace is the recycling probability for a full table's minimum entry.
	PReplace = 1.0 / 8
)

// ProbTracker is the policy family's tracker: per-bank (row, count) tables
// managed by the chosen policy, mitigating with a coupled DRFMsb when a
// tracked row's count reaches T_TH.
type ProbTracker struct {
	policy  ProbPolicy
	entries int
	tth     uint32
	rng     *sim.RNG
	banks   []probTable

	resetPeriod uint64

	// Selections counts mitigations; Rejected counts admission coin flips
	// lost; Recycled counts entries displaced from full tables.
	Selections uint64
	Rejected   uint64
	Recycled   uint64
}

// probTable is one bank's table: parallel row/count slices plus a row→index
// map for the per-ACT lookup.
type probTable struct {
	rows   []uint32
	counts []uint32
	pos    *rowtable.Table
}

// ProbConfig configures a ProbTracker.
type ProbConfig struct {
	TRH     int
	Banks   int
	Policy  ProbPolicy
	Entries int // per-bank table size (0 derives an eighth of Graphene's)
	// TTHOverride replaces the default T_RH/2 threshold (window-scaled in
	// experiments).
	TTHOverride uint32
	ResetPeriod uint64 // REFs between table resets (default memctrl.RefsPerWindow)
}

// NewProbTracker builds the tracker; rng drives every policy coin flip, so
// a fixed seed makes the whole run deterministic.
func NewProbTracker(cfg ProbConfig, rng *sim.RNG) (*ProbTracker, error) {
	tth := cfg.TTHOverride
	if tth == 0 {
		if cfg.TRH < 4 {
			return nil, fmt.Errorf("tracker: prob tracker T_RH %d too small", cfg.TRH)
		}
		tth = uint32(cfg.TRH / 2)
	}
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("tracker: prob tracker needs banks")
	}
	if rng == nil {
		return nil, fmt.Errorf("tracker: prob tracker needs an RNG")
	}
	switch cfg.Policy {
	case ProbInsert, ProbReplace, ProbHybrid:
	default:
		return nil, fmt.Errorf("tracker: unknown prob policy %d", cfg.Policy)
	}
	if cfg.Entries == 0 {
		cfg.Entries = security.GrapheneEntries(cfg.TRH) / 8
	}
	if cfg.Entries < 1 {
		cfg.Entries = 1
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	t := &ProbTracker{
		policy:      cfg.Policy,
		entries:     cfg.Entries,
		tth:         tth,
		rng:         rng,
		banks:       make([]probTable, cfg.Banks),
		resetPeriod: cfg.ResetPeriod,
	}
	for i := range t.banks {
		t.banks[i].rows = make([]uint32, 0, cfg.Entries)
		t.banks[i].counts = make([]uint32, 0, cfg.Entries)
		t.banks[i].pos = rowtable.New(cfg.Entries)
	}
	return t, nil
}

// Name implements memctrl.Mitigator.
func (t *ProbTracker) Name() string {
	return fmt.Sprintf("Prob(%s,K=%d,TTH=%d)", t.policy, t.entries, t.tth)
}

// admit decides whether an untracked row enters bank's table, per policy.
func (t *ProbTracker) admit(b *probTable) (idx int, ok bool) {
	if len(b.rows) < cap(b.rows) {
		if (t.policy == ProbInsert || t.policy == ProbHybrid) && !t.rng.Bernoulli(PInsert) {
			t.Rejected++
			return 0, false
		}
		b.rows = append(b.rows, 0)
		b.counts = append(b.counts, 0)
		return len(b.rows) - 1, true
	}
	switch t.policy {
	case ProbInsert:
		if !t.rng.Bernoulli(PInsert) {
			t.Rejected++
			return 0, false
		}
	case ProbReplace:
		if !t.rng.Bernoulli(PReplace) {
			t.Rejected++
			return 0, false
		}
	case ProbHybrid:
		if !t.rng.Bernoulli(PInsert * PReplace) {
			t.Rejected++
			return 0, false
		}
	}
	min := 0
	for i := 1; i < len(b.counts); i++ {
		if b.counts[i] < b.counts[min] {
			min = i
		}
	}
	b.pos.Delete(uint64(b.rows[min]))
	b.counts[min] = 0
	t.Recycled++
	return min, true
}

// OnActivate implements memctrl.Mitigator.
func (t *ProbTracker) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	b := &t.banks[bank]
	var idx int
	if i, ok := b.pos.Get(uint64(row)); ok {
		idx = int(i)
	} else {
		i, ok := t.admit(b)
		if !ok {
			return memctrl.Decision{}
		}
		idx = i
		b.rows[idx] = row
		b.pos.Set(uint64(row), uint64(idx))
	}
	b.counts[idx]++
	if b.counts[idx] < t.tth {
		return memctrl.Decision{}
	}
	b.counts[idx] = 0
	t.Selections++
	return memctrl.Decision{
		Sample:   true,
		CloseNow: true,
		PostOps:  []memctrl.Op{{Kind: memctrl.OpDRFMsb, Bank: bank}},
	}
}

// OnSampled implements memctrl.Mitigator.
func (t *ProbTracker) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *ProbTracker) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator: full table reset once per scaled
// window, as the counter trackers do.
func (t *ProbTracker) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	if refIndex > 0 && refIndex%t.resetPeriod == 0 {
		for i := range t.banks {
			b := &t.banks[i]
			b.rows = b.rows[:0]
			b.counts = b.counts[:0]
			b.pos.Reset()
		}
	}
	return nil
}

// StorageBits implements memctrl.Mitigator: row tag plus a T_TH-wide counter
// per entry per bank.
func (t *ProbTracker) StorageBits() int64 {
	ctrBits := bitsFor(uint64(t.tth))
	return int64(t.entries) * int64(security.RowAddrBits+ctrBits) * int64(len(t.banks))
}

// Tracked reports whether (bank,row) currently holds an entry — test hook.
func (t *ProbTracker) Tracked(bank int, row uint32) bool {
	_, ok := t.banks[bank].pos.Get(uint64(row))
	return ok
}

// ObsGauges implements obs.Gauger (structurally — no obs import needed).
func (t *ProbTracker) ObsGauges() map[string]float64 {
	return map[string]float64{
		"selections":       float64(t.Selections),
		"rejected":         float64(t.Rejected),
		"recycled":         float64(t.Recycled),
		"entries-per-bank": float64(t.entries),
	}
}
