// Package evq provides a hierarchical timing-wheel event queue for the
// simulator's event loop.
//
// The design follows the classic hashed-and-hierarchical timing wheels: near
// events live in a circular array of slots (one slot covers a fixed span of
// ticks, found via a two-level occupancy bitmap in O(1)), far events live in
// an overflow min-heap that is drained into the wheel as the window advances.
// The wheel spans 64 slots x 1024 ticks = 65536 ticks (~5.5 us at the
// simulator's 12 ticks/ns), which comfortably covers the largest recurring
// event distance in the DREAM model (tREFI = 46800 ticks), so the overflow
// heap is a rarely-exercised safety net rather than a hot path.
//
// Events are totally ordered by (At, Kind, A, B); PopNextBefore returns every
// event of one tick already sorted, which is what lets the system engine
// deliver same-tick completions as one batch and run per-tick bookkeeping
// once per tick instead of once per event.
package evq

import "math/bits"

// Event is one scheduled occurrence. The meaning of Kind/A/B is up to the
// caller; the queue only uses them for deterministic ordering.
type Event struct {
	// At is the absolute tick the event fires.
	At int64
	// Kind discriminates event families (e.g. completion vs wake); lower
	// kinds pop first within a tick.
	Kind uint8
	// A and B are caller payload, used as the final tiebreakers.
	A int32
	B uint64
}

// Less reports the total order (At, Kind, A, B).
func Less(x, y Event) bool {
	if x.At != y.At {
		return x.At < y.At
	}
	if x.Kind != y.Kind {
		return x.Kind < y.Kind
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

const (
	// One slot covers 1024 ticks. Event density in a full-system run is low
	// (roughly one event per several hundred ticks) while the simulated LLC
	// model keeps the host CPU cache under constant pressure, so the queue
	// is sized for working-set compactness, not scan length: 64 slot
	// headers are 1.5 KB, the occupancy bitmap is a single word, and a slot
	// holds ~2 events, where finer geometries (16K x 4, 1K x 64, 256 x 256)
	// measure slower purely on cache misses despite shorter slot scans.
	slotBits = 10
	numSlots = 1 << 6
	slotMask = numSlots - 1
	span     = int64(numSlots) << slotBits // ticks covered by the wheel window

	wordCount = numSlots / 64 // occupancy words
	sumWords  = (wordCount + 63) / 64
)

// Wheel is a single-level timing wheel with an overflow heap. It is not
// safe for concurrent use.
type Wheel struct {
	// Each slot is a small binary min-heap ordered by Less: the slot minimum
	// is s[0] (no scan), pushes sift O(log k), and extraction pops the
	// tick's events in order without the O(k) rescans or memmoves that a
	// flat or sorted slice would pay once per popped tick.
	slots [numSlots]evHeap
	// occ has one bit per slot; occSum has one bit per occ word, so finding
	// the first occupied slot is a bounded bitmap walk (start word, then the
	// 4-word summary circularly) — no scan over slots.
	occ    [wordCount]uint64
	occSum [sumWords]uint64

	// base is the slot-aligned start of the window: every wheel-resident
	// event is stored at an effective time in [base, base+span). It only
	// advances.
	base int64
	// floor is the last popped tick: pushes earlier than floor are clamped
	// to it, so pop order stays monotone.
	floor int64
	count int

	over evHeap // events with At >= base+span
}

// slotCap0 is the initial per-slot heap capacity. Slots are given
// non-overlapping windows of one contiguous backing array, so a whole
// wheel's steady-state storage is two allocations; only a slot that
// outgrows its window reallocates individually. 48 covers the completion
// bursts a full-system run concentrates into a slot when a channel-wide
// mitigation stall releases many banks at once (a slot spans 1024 ticks
// and the shared data bus bounds how many bursts fit in one span).
const slotCap0 = 48

// NewWheel returns a wheel whose window starts at tick start.
func NewWheel(start int64) *Wheel {
	w := &Wheel{base: start &^ ((1 << slotBits) - 1), floor: start}
	backing := make([]Event, numSlots*slotCap0)
	for i := range w.slots {
		w.slots[i] = backing[i*slotCap0 : i*slotCap0 : (i+1)*slotCap0]
	}
	return w
}

// Len reports the number of queued events.
func (w *Wheel) Len() int { return w.count + len(w.over) }

// Push inserts e. Events earlier than the floor (already-elapsed ticks) are
// clamped to fire at the floor tick; the caller is expected not to schedule
// into the past, but a clamped event still pops promptly and in order.
func (w *Wheel) Push(e Event) {
	at := e.At
	if at < w.floor {
		at = w.floor
	}
	if at >= w.base+span {
		w.over.push(e)
		return
	}
	idx := int(at>>slotBits) & slotMask
	w.slots[idx].push(e)
	w.occ[idx>>6] |= 1 << (idx & 63)
	w.occSum[idx>>12] |= 1 << ((idx >> 6) & 63)
	w.count++
}

// nextWord reports the first occ word index >= from with any slot occupied,
// or -1 (via the occSum summary; at most sumWords iterations).
func (w *Wheel) nextWord(from int) int {
	for k := from >> 6; k < sumWords; k++ {
		m := w.occSum[k]
		if k == from>>6 {
			m &= ^uint64(0) << (from & 63)
		}
		if m != 0 {
			return k<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// firstSlot finds the first occupied slot at or circularly after the base
// slot, or -1 when the wheel (not the overflow) is empty.
func (w *Wheel) firstSlot() int {
	if w.count == 0 {
		return -1
	}
	start := int(w.base>>slotBits) & slotMask
	sw, sb := start>>6, start&63
	// Bits >= sb of the starting word cover the window's first slots.
	if m := w.occ[sw] & (^uint64(0) << sb); m != 0 {
		return sw<<6 + bits.TrailingZeros64(m)
	}
	// Later words in circular order: sw+1.., then wrap to 0..sw. A wrap that
	// lands back on sw means only the start word's low bits remain — those
	// are the window's last slots.
	wi := w.nextWord(sw + 1)
	if wi < 0 {
		wi = w.nextWord(0)
	}
	if wi < 0 {
		return -1
	}
	if wi == sw {
		if m := w.occ[sw] & (1<<sb - 1); m != 0 {
			return sw<<6 + bits.TrailingZeros64(m)
		}
		return -1
	}
	return wi<<6 + bits.TrailingZeros64(w.occ[wi])
}

// PopNextBefore finds the earliest queued event time and, when it is at or
// before limit, pops that tick's whole batch, appended to buf in (Kind, A, B)
// order. Otherwise it extracts nothing and reports ok=false, leaving the
// queue untouched. A caller that already knows an earlier deadline (the
// engine's controller-wake scan) tests and pops in one slot search; an
// unbounded pop passes math.MaxInt64.
func (w *Wheel) PopNextBefore(limit int64, buf []Event) (batch []Event, at int64, ok bool) {
	var slot int
	for {
		if slot = w.firstSlot(); slot >= 0 {
			break
		}
		if len(w.over) == 0 || w.over[0].At > limit {
			return buf, 0, false
		}
		w.rebase(w.over[0].At)
	}
	at = w.slots[slot][0].At // slot heaps: s[0] is the minimum
	if at < w.floor {
		at = w.floor // clamped past-events fire at the floor tick
	}
	if at > limit {
		return buf, 0, false
	}
	return w.extract(slot, at, buf), at, true
}

// rebase advances the window start to (slot-aligned) at and migrates every
// overflow event that now falls inside the window into the wheel.
func (w *Wheel) rebase(at int64) {
	if at < w.base {
		return
	}
	w.base = at &^ ((1 << slotBits) - 1)
	for len(w.over) > 0 && w.over[0].At < w.base+span {
		w.Push(w.over.pop())
	}
}

// extract pops every event with At <= at (clamped past-events fire with the
// tick that reported them) from slot idx, appended to buf in (Kind, A, B)
// order. It advances the floor to at and the window base onto at's slot,
// draining newly-near overflow events.
func (w *Wheel) extract(idx int, at int64, buf []Event) []Event {
	w.rebase(at)
	if at > w.floor {
		w.floor = at
	}
	s := &w.slots[idx]
	n := 0
	for len(*s) > 0 && (*s)[0].At <= at {
		buf = append(buf, s.pop())
		n++
	}
	if len(*s) == 0 {
		w.occ[idx>>6] &^= 1 << (idx & 63)
		if w.occ[idx>>6] == 0 {
			w.occSum[idx>>12] &^= 1 << ((idx >> 6) & 63)
		}
	}
	w.count -= n
	// Successive heap pops come out in (At, Kind, A, B) order. When the batch
	// mixes clamped past-events (older At) with the floor tick's own events,
	// the batch contract is (Kind, A, B) order regardless of stored At — the
	// insertion sort below fixes those rare mixes and is a no-op pass
	// otherwise.
	tail := buf[len(buf)-n:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && lessKAB(tail[j], tail[j-1]); j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return buf
}

// lessKAB orders same-tick events (the At fields may differ only for clamped
// past-events, which fire together regardless).
func lessKAB(x, y Event) bool {
	if x.Kind != y.Kind {
		return x.Kind < y.Kind
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// --- event min-heap (slot storage and the overflow bucket) -------------------

type evHeap []Event

func (h *evHeap) push(e Event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !Less(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *evHeap) pop() Event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && Less(s[l], s[small]) {
			small = l
		}
		if r < len(s) && Less(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}
