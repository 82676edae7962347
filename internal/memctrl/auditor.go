package memctrl

import (
	"slices"

	"repro/internal/rowtable"
)

// Auditor is the security oracle of the simulator. It watches every
// activation (including mitigation-induced dummy activations) and every
// victim-refresh, and tracks two attacker-success metrics:
//
//   - MaxAggressor: the maximum number of activations any single row
//     accumulated while its victims went unrefreshed (the paper's §2.1
//     success criterion, aggressor-centric, single-sided count).
//   - MaxVictim: the maximum combined activations of a row's two immediate
//     neighbours while that row went unrefreshed (double-sided damage).
//
// Whether an attack "wins" against a threshold T_RH is decided by
// security.Breached over MaxVictim, the one breach rule every audit uses.
// Refresh sweeps reset the slice of rows each REF covers; mitigation of an
// aggressor resets the damage of its blast-radius victims.
type Auditor struct {
	rows        int
	refsPerWin  uint64
	acts        *rowtable.Table // (bank,row) -> ACTs since victims last refreshed
	damage      *rowtable.Table // (bank,row) -> neighbour ACTs since row refreshed
	MaxAggr     uint64
	MaxVictim   uint64
	TotalACTs   uint64
	TotalVRefrs uint64

	// actsBySlot/damageBySlot index the live key set by refresh slot
	// (row mod refsPerWin), listed on insertion. A REF then deletes only
	// its own slot's keys instead of predicate-scanning every tracked row —
	// the sweep that used to dominate audited runs. A slot may list stale
	// keys (already cleared by a mitigation); Delete is a no-op for those.
	actsBySlot   slotIndex
	damageBySlot slotIndex
}

// slotIndex lists keys by refresh slot: one singly linked list per slot,
// threaded through a node pool shared by all slots. A sweep returns its
// slot's nodes to a free list, so a run reuses the same memory window after
// window instead of growing one slice per slot. Node 0 is a sentinel, so
// a zero head or link means "none".
type slotIndex struct {
	head []int32  // per slot: its first node
	next []int32  // per node: the next node of its slot's list, or of the free list
	keys []uint64 // per node: the listed key
	free int32    // first free node
}

func newSlotIndex(slots uint64) slotIndex {
	return slotIndex{
		head: make([]int32, slots),
		next: make([]int32, 1, 1<<10),
		keys: make([]uint64, 1, 1<<10),
	}
}

// add lists key k under slot.
func (x *slotIndex) add(slot, k uint64) {
	n := x.free
	if n != 0 {
		x.free = x.next[n]
		x.keys[n] = k
	} else {
		if len(x.keys) == cap(x.keys) {
			// Double the pool: append grows a large slice by about 1.25x,
			// which would copy a pool that lives all run many times over.
			x.keys = slices.Grow(x.keys, len(x.keys))
			x.next = slices.Grow(x.next, len(x.next))
		}
		n = int32(len(x.keys))
		x.keys = append(x.keys, k)
		x.next = append(x.next, 0)
	}
	x.next[n] = x.head[slot]
	x.head[slot] = n
}

// sweep deletes every key listed under slot from t and frees the slot's
// nodes.
func (x *slotIndex) sweep(slot uint64, t *rowtable.Table) {
	first := x.head[slot]
	if first == 0 {
		return
	}
	n := first
	for {
		t.Delete(x.keys[n])
		if x.next[n] == 0 {
			break
		}
		n = x.next[n]
	}
	x.next[n] = x.free
	x.free = first
	x.head[slot] = 0
}

// NewAuditor builds an auditor for banks of rows rows, with refsPerWindow
// REF commands per refresh window (RefsPerWindow for DDR5).
func NewAuditor(rows int, refsPerWindow uint64) *Auditor {
	a := &Auditor{
		rows:       rows,
		refsPerWin: refsPerWindow,
		acts:       rowtable.New(1 << 12),
		damage:     rowtable.New(1 << 12),
	}
	if refsPerWindow > 0 {
		a.actsBySlot = newSlotIndex(refsPerWindow)
		a.damageBySlot = newSlotIndex(refsPerWindow)
	}
	return a
}

func key(bank int, row uint32) uint64 { return rowtable.Key(bank, row) }

// OnActivate records one activation of (bank, row).
func (a *Auditor) OnActivate(bank int, row uint32) {
	a.TotalACTs++
	k := key(bank, row)
	n, fresh := a.acts.IncrReport(k, 1)
	if n > a.MaxAggr {
		a.MaxAggr = n
	}
	if fresh && a.refsPerWin > 0 {
		a.actsBySlot.add(uint64(row)%a.refsPerWin, k)
	}
	for _, v := range [2]int64{int64(row) - 1, int64(row) + 1} {
		if v < 0 || v >= int64(a.rows) {
			continue
		}
		vk := key(bank, uint32(v))
		d, fresh := a.damage.IncrReport(vk, 1)
		if d > a.MaxVictim {
			a.MaxVictim = d
		}
		if fresh && a.refsPerWin > 0 {
			a.damageBySlot.add(uint64(v)%a.refsPerWin, vk)
		}
	}
}

// OnMitigate records a victim-refresh of aggressor (bank, row): its
// blast-radius victims (distance 1 and 2, per DRFM Bounded Refresh) are
// refreshed, so their damage clears and the aggressor's unmitigated count
// resets.
func (a *Auditor) OnMitigate(bank int, row uint32) {
	a.TotalVRefrs++
	a.acts.Delete(key(bank, row))
	for d := int64(-2); d <= 2; d++ {
		if d == 0 {
			continue
		}
		v := int64(row) + d
		if v < 0 || v >= int64(a.rows) {
			continue
		}
		a.damage.Delete(key(bank, uint32(v)))
		// A refresh of row v also clears v's own contribution windows: its
		// neighbours' aggressor counts no longer threaten v, which is what
		// damage[v]=0 expresses. Aggressor counts of other rows stand.
	}
}

// OnRefresh applies the periodic refresh sweep for REF index refIndex: rows
// whose index ≡ refIndex (mod refsPerWindow) are refreshed in every bank.
func (a *Auditor) OnRefresh(refIndex uint64) {
	if a.refsPerWin == 0 {
		return
	}
	slot := refIndex % a.refsPerWin
	a.damageBySlot.sweep(slot, a.damage)
	// Refreshing row r cleans r as a victim; as an aggressor its count
	// matters to neighbours, which are refreshed in adjacent slots. We
	// conservatively reset an aggressor only when both its neighbours
	// have been refreshed, approximated by its own slot passing.
	a.actsBySlot.sweep(slot, a.acts)
}

// Rows tracked (for tests).
func (a *Auditor) Tracked() (aggr, victims int) { return a.acts.Len(), a.damage.Len() }

// Damage reports the accumulated neighbour activations of (bank,row) since
// it was last refreshed (tests).
func (a *Auditor) Damage(bank int, row uint32) uint64 {
	v, _ := a.damage.Get(key(bank, row))
	return v
}
