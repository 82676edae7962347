package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rowtable"
	"repro/internal/security"
)

// Graphene is the counter-based tracker [Park+, MICRO'20]: a per-bank
// frequent-element (Misra–Gries / space-saving) table that mitigates a row
// whenever its estimated count reaches T_TH = T_RH/2. The table holds
// security.GrapheneEntries rows per bank (Table 1) and resets once per
// refresh window. Graphene needs CAM lookups in hardware; here the CAM
// is a map plus a count-ordered heap.
type Graphene struct {
	entries int
	tth     uint32
	mode    Mode
	banks   []ssTable

	// resetPeriod is how many REFs between full table resets (tREFW
	// scaled by the experiment's WindowScale).
	resetPeriod uint64

	// Selections counts threshold crossings (mitigations).
	Selections uint64
}

// GrapheneConfig configures a Graphene tracker.
type GrapheneConfig struct {
	TRH         int
	Banks       int
	Mode        Mode
	ResetPeriod uint64 // REFs between table resets (memctrl.RefsPerWindow unscaled)
}

// NewGraphene builds the tracker.
func NewGraphene(cfg GrapheneConfig) (*Graphene, error) {
	if cfg.TRH < 4 {
		return nil, fmt.Errorf("tracker: Graphene T_RH %d too small", cfg.TRH)
	}
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("tracker: Graphene needs banks")
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	g := &Graphene{
		entries:     security.GrapheneEntries(cfg.TRH),
		tth:         uint32(cfg.TRH / 2),
		mode:        cfg.Mode,
		banks:       make([]ssTable, cfg.Banks),
		resetPeriod: cfg.ResetPeriod,
	}
	for i := range g.banks {
		g.banks[i].init(g.entries)
	}
	return g, nil
}

// OnActivate implements memctrl.Mitigator.
func (g *Graphene) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	count := g.banks[bank].touch(row)
	if count < g.tth {
		return memctrl.Decision{}
	}
	// Threshold reached: mitigate this row and restart its count.
	g.banks[bank].reset(row)
	g.Selections++
	if g.mode == ModeNRR {
		return memctrl.Decision{
			CloseNow: true,
			PostOps:  []memctrl.Op{{Kind: memctrl.OpNRR, Bank: bank, Row: row}},
		}
	}
	return memctrl.Decision{
		Sample:   true,
		CloseNow: true,
		PostOps:  []memctrl.Op{g.mode.drfmOp(bank)},
	}
}

// OnSampled implements memctrl.Mitigator.
func (g *Graphene) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (g *Graphene) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator: full table reset once per
// (scaled) refresh window.
func (g *Graphene) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	if refIndex > 0 && refIndex%g.resetPeriod == 0 {
		for i := range g.banks {
			g.banks[i].clear()
		}
	}
	return nil
}

// StorageBits implements memctrl.Mitigator: per entry a row address and a
// counter wide enough for T_TH, per bank, plus the spill counter. This
// reproduces the Table-1 budgets (≈4.1 KB/bank at T_RH = 1000).
func (g *Graphene) StorageBits() int64 {
	ctrBits := bitsFor(uint64(g.tth))
	perBank := int64(g.entries)*int64(security.RowAddrBits+ctrBits) + int64(bitsFor(security.MaxACTsPerWindow))
	return perBank * int64(len(g.banks))
}

// ObsGauges implements obs.Gauger (structurally — no obs import needed):
// end-of-run tracker internals for observability reports.
func (g *Graphene) ObsGauges() map[string]float64 {
	var resident int
	for i := range g.banks {
		resident += len(g.banks[i].heap)
	}
	return map[string]float64{
		"selections":       float64(g.Selections),
		"entries-per-bank": float64(g.entries),
		"resident-rows":    float64(resident),
	}
}

// Count reports the current estimated count for (bank,row) — test hook.
func (g *Graphene) Count(bank int, row uint32) uint32 { return g.banks[bank].count(row) }

// Resident reports whether the row currently holds a table entry.
func (g *Graphene) Resident(bank int, row uint32) bool {
	_, ok := g.banks[bank].pos.Get(uint64(row))
	return ok
}

func bitsFor(v uint64) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// ssTable is a space-saving frequent-element table: a min-heap of (row,
// count) entries plus a row→heap-index table (a rowtable.Table — the CAM
// lookup is the per-ACT hot path, and the flat table keeps it
// allocation-free with an O(1) per-window clear). The space-saving
// guarantee — any row activated more than ACTs/K times is resident with an
// estimate no smaller than its true count — is what makes Graphene secure.
type ssTable struct {
	cap  int
	heap []ssEntry
	pos  *rowtable.Table
}

type ssEntry struct {
	row   uint32
	count uint32
}

func (t *ssTable) init(capacity int) {
	t.cap = capacity
	t.heap = make([]ssEntry, 0, capacity)
	t.pos = rowtable.New(capacity)
}

func (t *ssTable) clear() {
	t.heap = t.heap[:0]
	t.pos.Reset()
}

// touch records one activation of row and returns its new estimate.
func (t *ssTable) touch(row uint32) uint32 {
	if i, ok := t.pos.Get(uint64(row)); ok {
		t.heap[i].count++
		j := t.siftDown(int(i))
		return t.heap[j].count
	}
	if len(t.heap) < t.cap {
		t.heap = append(t.heap, ssEntry{row: row, count: 1})
		i := len(t.heap) - 1
		t.pos.Set(uint64(row), uint64(i))
		t.siftUp(i)
		return 1
	}
	// Replace the minimum (space-saving): new count = min + 1.
	min := &t.heap[0]
	t.pos.Delete(uint64(min.row))
	min.row = row
	min.count++
	t.pos.Set(uint64(row), 0)
	j := t.siftDown(0)
	return t.heap[j].count
}

// reset zeroes a row's count after mitigation.
func (t *ssTable) reset(row uint32) {
	if i, ok := t.pos.Get(uint64(row)); ok {
		t.heap[i].count = 0
		t.siftUp(int(i))
	}
}

func (t *ssTable) count(row uint32) uint32 {
	if i, ok := t.pos.Get(uint64(row)); ok {
		return t.heap[i].count
	}
	return 0
}

// siftUp and siftDown move entries hole-style: the shifting entry is held
// aside while displaced entries slide into the hole, so each level costs one
// position-table update instead of the two a pairwise swap would. The
// comparisons and the resulting heap layout are exactly those of the classic
// swap formulation — same permutation, half the CAM updates — which keeps
// every eviction tie-break, and therefore the simulation, bit-identical.

func (t *ssTable) siftUp(i int) {
	e := t.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].count <= e.count {
			break
		}
		t.heap[i] = t.heap[parent]
		t.pos.Set(uint64(t.heap[i].row), uint64(i))
		i = parent
	}
	t.heap[i] = e
	t.pos.Set(uint64(e.row), uint64(i))
}

// siftDown restores heap order below i and returns the entry's final index.
func (t *ssTable) siftDown(i int) int {
	n := len(t.heap)
	e := t.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		least := e.count
		if l < n && t.heap[l].count < least {
			small, least = l, t.heap[l].count
		}
		if r < n && t.heap[r].count < least {
			small = r
		}
		if small == i {
			break
		}
		t.heap[i] = t.heap[small]
		t.pos.Set(uint64(t.heap[i].row), uint64(i))
		i = small
	}
	t.heap[i] = e
	t.pos.Set(uint64(e.row), uint64(i))
	return i
}
