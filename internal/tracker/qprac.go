package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rowtable"
	"repro/internal/security"
)

// QPRAC models the priority-queue extension of PRAC [Canpolat+, 2025;
// PAPERS.md]: the per-row activation counters stay inside the DRAM (as in
// MOAT), but the controller keeps a small per-bank priority queue of the
// hottest rows and *proactively* mitigates the queue head during every REF —
// so under benign and adversarial traffic alike, almost all mitigation work
// rides the refresh schedule instead of stalling the channel. The
// Alert-Back-Off stall survives only as a backstop for rows that reach the
// alert threshold between REF services; with working proactive mitigation it
// should essentially never fire.
//
// Shares MOAT's cost structure: the intrinsic PRAC slowdown comes from
// running with dram.PRACTimings() (Scheme.PRAC), the extrinsic cost modelled
// here is one NRR per bank per REF plus the (rare) ABO backstop.
type QPRAC struct {
	eth    uint64 // ABO backstop threshold
	pqth   uint64 // queue admission threshold
	counts *rowtable.Table
	queues []pqueue

	resetPeriod uint64

	// ABOs counts backstop alert-back-off events; Proactive counts rows
	// mitigated from the queue during REF.
	ABOs      uint64
	Proactive uint64
}

// pqueue is one bank's bounded priority queue: a tiny insertion-ordered
// array scanned linearly (QPRAC's hardware is a handful of comparators; K is
// single-digit, so linear scans are the honest model and cost nothing).
type pqueue struct {
	rows   []uint32
	counts []uint64
}

// QPRACConfig configures the model.
type QPRACConfig struct {
	TRH   int
	Banks int
	// QueueDepth is the per-bank priority-queue capacity (default
	// security.QPRACQueueDepth).
	QueueDepth int
	// ResetPeriod is REFs between counter resets (scaled window; default
	// memctrl.RefsPerWindow).
	ResetPeriod uint64
	// ETHOverride replaces the default T_RH/2 alert threshold; PQTHOverride
	// replaces the default ETH/4 queue-admission threshold. Experiments pass
	// window-scaled values here (Env.ScaledTTH) so short simulations exercise
	// the proactive path at steady-state rates.
	ETHOverride  uint32
	PQTHOverride uint32
}

// NewQPRAC builds the model.
func NewQPRAC(cfg QPRACConfig) (*QPRAC, error) {
	eth := uint64(cfg.ETHOverride)
	if eth == 0 {
		if cfg.TRH < 4 {
			return nil, fmt.Errorf("tracker: QPRAC T_RH %d too small", cfg.TRH)
		}
		eth = uint64(cfg.TRH / 2)
	}
	pqth := uint64(cfg.PQTHOverride)
	if pqth == 0 {
		pqth = eth / 4
	}
	// The admission threshold must sit below the backstop; heavily scaled
	// windows can collapse the two, so clamp rather than reject.
	if pqth >= eth {
		pqth = eth / 2
	}
	if pqth == 0 {
		pqth = 1
	}
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("tracker: QPRAC needs banks")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = security.QPRACQueueDepth
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	q := &QPRAC{
		eth:         eth,
		pqth:        pqth,
		counts:      rowtable.New(1 << 12),
		queues:      make([]pqueue, cfg.Banks),
		resetPeriod: cfg.ResetPeriod,
	}
	for i := range q.queues {
		q.queues[i].rows = make([]uint32, 0, cfg.QueueDepth)
		q.queues[i].counts = make([]uint64, 0, cfg.QueueDepth)
	}
	return q, nil
}

// upsert records row's current count in bank's queue: update in place,
// append while there is room, otherwise displace the smallest entry if this
// count beats it.
func (q *pqueue) upsert(row uint32, count uint64) {
	for i, r := range q.rows {
		if r == row {
			q.counts[i] = count
			return
		}
	}
	if len(q.rows) < cap(q.rows) {
		q.rows = append(q.rows, row)
		q.counts = append(q.counts, count)
		return
	}
	min := 0
	for i := 1; i < len(q.counts); i++ {
		if q.counts[i] < q.counts[min] {
			min = i
		}
	}
	if count > q.counts[min] {
		q.rows[min], q.counts[min] = row, count
	}
}

// popMax removes and returns the highest-count entry (ties to the earliest
// inserted, keeping the model deterministic).
func (q *pqueue) popMax() (uint32, bool) {
	if len(q.rows) == 0 {
		return 0, false
	}
	max := 0
	for i := 1; i < len(q.counts); i++ {
		if q.counts[i] > q.counts[max] {
			max = i
		}
	}
	row := q.rows[max]
	last := len(q.rows) - 1
	q.rows[max], q.counts[max] = q.rows[last], q.counts[last]
	q.rows, q.counts = q.rows[:last], q.counts[:last]
	return row, true
}

// drop removes row from the queue if present.
func (q *pqueue) drop(row uint32) {
	for i, r := range q.rows {
		if r == row {
			last := len(q.rows) - 1
			q.rows[i], q.counts[i] = q.rows[last], q.counts[last]
			q.rows, q.counts = q.rows[:last], q.counts[:last]
			return
		}
	}
}

// OnActivate implements memctrl.Mitigator: the PRAC counter increments in
// DRAM; the controller mirrors rows past the queue threshold into the
// per-bank priority queue and fires the ABO backstop at ETH.
func (t *QPRAC) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	k := rowtable.Key(bank, row)
	c := t.counts.Incr(k, 1)
	if c >= t.eth {
		t.counts.Set(k, 0)
		t.queues[bank].drop(row)
		t.ABOs++
		return memctrl.Decision{
			PreOps: []memctrl.Op{
				{Kind: memctrl.OpStallAll, Dur: aboStall},
				{Kind: memctrl.OpNRR, Bank: bank, Row: row},
			},
		}
	}
	if c >= t.pqth {
		t.queues[bank].upsert(row, c)
	}
	return memctrl.Decision{}
}

// OnSampled implements memctrl.Mitigator.
func (t *QPRAC) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *QPRAC) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator: every REF proactively mitigates
// each bank's queue head (the in-DRAM victim refresh rides the refresh
// window, modelled as NRR so the auditor observes it) and resets its
// counter; the periodic full reset matches the scaled refresh window.
func (t *QPRAC) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	if refIndex > 0 && refIndex%t.resetPeriod == 0 {
		t.counts.Reset()
		for i := range t.queues {
			t.queues[i].rows = t.queues[i].rows[:0]
			t.queues[i].counts = t.queues[i].counts[:0]
		}
		return nil
	}
	var ops []memctrl.Op
	for bank := range t.queues {
		row, ok := t.queues[bank].popMax()
		if !ok {
			continue
		}
		t.counts.Set(rowtable.Key(bank, row), 0)
		t.Proactive++
		ops = append(ops, memctrl.Op{Kind: memctrl.OpNRR, Bank: bank, Row: row})
	}
	return ops
}

// StorageBits implements memctrl.Mitigator: the PRAC counters live in the
// DRAM array; controller SRAM is only the per-bank queues (row tag plus a
// counter wide enough for ETH per entry).
func (t *QPRAC) StorageBits() int64 {
	perEntry := int64(security.RowAddrBits + bitsFor(t.eth))
	var bits int64
	for i := range t.queues {
		bits += int64(cap(t.queues[i].rows)) * perEntry
	}
	return bits
}

// ObsGauges implements obs.Gauger (structurally — no obs import needed).
func (t *QPRAC) ObsGauges() map[string]float64 {
	return map[string]float64{
		"abos":      float64(t.ABOs),
		"proactive": float64(t.Proactive),
		"eth":       float64(t.eth),
	}
}
