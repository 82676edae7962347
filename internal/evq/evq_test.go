package evq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// noLimit makes PopNextBefore an unbounded pop of the earliest tick.
const noLimit = math.MaxInt64

// refQueue is the trivially-correct reference: a sorted-on-demand slice
// popped in (At, Kind, A, B) order, batched per tick.
type refQueue struct {
	events []Event
}

func (r *refQueue) push(e Event, floor int64) {
	// Mirror the wheel's clamp of past events to the current floor.
	if e.At < floor {
		e.At = floor
	}
	r.events = append(r.events, e)
}

func (r *refQueue) nextAt() (int64, bool) {
	if len(r.events) == 0 {
		return 0, false
	}
	min := r.events[0].At
	for _, e := range r.events[1:] {
		if e.At < min {
			min = e.At
		}
	}
	return min, true
}

func (r *refQueue) popBatch(at int64) []Event {
	var batch []Event
	rest := r.events[:0]
	for _, e := range r.events {
		if e.At == at {
			batch = append(batch, e)
		} else {
			rest = append(rest, e)
		}
	}
	r.events = rest
	sort.Slice(batch, func(i, j int) bool { return Less(batch[i], batch[j]) })
	return batch
}

// driveAgainstReference pushes a random schedule into both queues and pops
// everything, asserting identical batch sequences. Far-future inserts
// exercise the overflow heap; duplicate (At, Kind, A, B) tuples and dense
// same-tick groups exercise batch ordering. Every pop is bounded the way the
// engine bounds it: with t the reference's next event time,
// PopNextBefore(t-1) must pop nothing and PopNextBefore(t) must pop exactly
// the reference's batch for t.
func driveAgainstReference(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := NewWheel(0)
	ref := &refQueue{}
	now := int64(0)

	randEvent := func() Event {
		at := now
		switch rng.Intn(10) {
		case 0: // same tick
		case 1: // past (gets clamped)
			at = now - rng.Int63n(200)
		case 2, 3: // far future: overflow territory
			at = now + span + rng.Int63n(4*span)
		default: // near future, dense
			at = now + rng.Int63n(2000)
		}
		return Event{
			At:   at,
			Kind: uint8(rng.Intn(2)),
			A:    int32(rng.Intn(8)),
			B:    uint64(rng.Intn(64)),
		}
	}

	// popRef pops the reference's next tick from the wheel and compares the
	// batches; it reports false once both queues are empty.
	var buf []Event
	popRef := func(op int) bool {
		rAt, rOK := ref.nextAt()
		if !rOK {
			if b, at, ok := w.PopNextBefore(noLimit, buf[:0]); ok {
				t.Fatalf("op %d: reference empty, wheel popped %d events at %d", op, len(b), at)
			}
			return false
		}
		if _, _, ok := w.PopNextBefore(rAt-1, buf[:0]); ok {
			t.Fatalf("op %d: PopNextBefore(%d) popped below the earliest event %d", op, rAt-1, rAt)
		}
		var at int64
		var ok bool
		buf, at, ok = w.PopNextBefore(rAt, buf[:0])
		if !ok || at != rAt {
			t.Fatalf("op %d: PopNextBefore(%d) = (%d,%v)", op, rAt, at, ok)
		}
		want := ref.popBatch(rAt)
		if len(buf) != len(want) {
			t.Fatalf("op %d tick %d: batch len %d, ref %d", op, rAt, len(buf), len(want))
		}
		for j := range buf {
			got := buf[j]
			got.At = rAt // clamped events keep their original At in the wheel
			if got != want[j] {
				t.Fatalf("op %d tick %d batch[%d]: %+v, ref %+v", op, rAt, j, got, want[j])
			}
		}
		now = rAt
		return true
	}

	for i := 0; i < ops; i++ {
		for n := rng.Intn(4); n >= 0; n-- {
			e := randEvent()
			w.Push(e)
			ref.push(e, now)
		}
		if w.Len() != len(ref.events) {
			t.Fatalf("op %d: Len = %d, ref %d", i, w.Len(), len(ref.events))
		}
		popRef(i)
	}
	// Drain both to empty.
	for popRef(ops) {
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty after drain: %d", w.Len())
	}
}

func TestWheelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		driveAgainstReference(t, seed, 300)
	}
}

func TestWheelOverflowRebase(t *testing.T) {
	w := NewWheel(0)
	// Everything beyond the window: forces rebase + drain.
	for i := 0; i < 100; i++ {
		w.Push(Event{At: 10 * span * int64(i+1), A: int32(i)})
	}
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		b, at, ok := w.PopNextBefore(noLimit, nil)
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if at <= prev {
			t.Fatalf("pop %d: non-monotone %d after %d", i, at, prev)
		}
		if len(b) != 1 || b[0].A != int32(i) {
			t.Fatalf("pop %d: batch %+v", i, b)
		}
		prev = at
	}
	if _, _, ok := w.PopNextBefore(noLimit, nil); ok {
		t.Fatal("wheel should be empty")
	}
}

func TestWheelSameTickOrder(t *testing.T) {
	w := NewWheel(0)
	// Reverse-ordered same-tick events must pop sorted by (Kind, A, B).
	evs := []Event{
		{At: 100, Kind: 1, A: 2, B: 0},
		{At: 100, Kind: 1, A: 0, B: 9},
		{At: 100, Kind: 0, A: 5, B: 7},
		{At: 100, Kind: 0, A: 5, B: 3},
		{At: 100, Kind: 0, A: 1, B: 8},
	}
	for _, e := range evs {
		w.Push(e)
	}
	b, _, _ := w.PopNextBefore(100, nil)
	if len(b) != len(evs) {
		t.Fatalf("batch len %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if !Less(b[i-1], b[i]) {
			t.Fatalf("batch out of order at %d: %+v before %+v", i, b[i-1], b[i])
		}
	}
}

// TestWheelPopAcrossWrap drives pops across several full wheel windows
// (64 slots x 1024 ticks), with each push landing beyond the window so every
// pop crosses the wrap boundary via rebase, and the slot index re-used by
// earlier laps must have been cleanly vacated.
func TestWheelPopAcrossWrap(t *testing.T) {
	w := NewWheel(0)
	now := int64(0)
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < 8; i++ {
			// Straddle the boundary: some events land just inside the current
			// window, some just outside (overflow), all within one slot span
			// of the wrap point.
			w.Push(Event{At: now + span - 512 + int64(i)*128, A: int32(i)})
		}
		prev := now - 1
		for i := 0; i < 8; i++ {
			b, at, ok := w.PopNextBefore(noLimit, nil)
			if !ok {
				t.Fatalf("lap %d pop %d: empty", lap, i)
			}
			if at <= prev {
				t.Fatalf("lap %d pop %d: non-monotone %d after %d", lap, i, at, prev)
			}
			if len(b) != 1 || b[0].A != int32(i) {
				t.Fatalf("lap %d pop %d: batch %+v", lap, i, b)
			}
			prev = at
		}
		now = prev
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty after laps: %d", w.Len())
	}
}

// TestWheelPopNextBefore pins the bounded pop: a limit below the earliest
// event must leave the queue untouched (including when the earliest event
// sits in the overflow heap — no premature rebase past the limit), and a
// limit at or above it must pop the earliest tick's whole batch.
func TestWheelPopNextBefore(t *testing.T) {
	w := NewWheel(0)
	w.Push(Event{At: 500, A: 1})
	w.Push(Event{At: 500, A: 2})
	w.Push(Event{At: 700, A: 3})
	if _, _, ok := w.PopNextBefore(499, nil); ok {
		t.Fatal("limit below earliest event must not pop")
	}
	if w.Len() != 3 {
		t.Fatalf("failed bounded pop mutated the queue: Len=%d", w.Len())
	}
	b, at, ok := w.PopNextBefore(500, nil)
	if !ok || at != 500 || len(b) != 2 || b[0].A != 1 || b[1].A != 2 {
		t.Fatalf("PopNextBefore(500) = %v,%d,%v", b, at, ok)
	}
	b, at, ok = w.PopNextBefore(noLimit, nil)
	if !ok || at != 700 || len(b) != 1 || b[0].A != 3 {
		t.Fatalf("PopNextBefore(inf) = %v,%d,%v", b, at, ok)
	}

	// Overflow-only queue: a limit below the overflow minimum must refuse
	// without rebasing, then a permissive limit drains it.
	w2 := NewWheel(0)
	w2.Push(Event{At: 3 * span, A: 9})
	if _, _, ok := w2.PopNextBefore(span, nil); ok {
		t.Fatal("overflow event beyond limit must not pop")
	}
	if base := w2.base; base != 0 {
		t.Fatalf("refused bounded pop rebased the window to %d", base)
	}
	b, at, ok = w2.PopNextBefore(3*span, nil)
	if !ok || at != 3*span || len(b) != 1 || b[0].A != 9 {
		t.Fatalf("PopNextBefore(3*span) = %v,%d,%v", b, at, ok)
	}
}

// FuzzWheel lets go's fuzzer mutate the seed for the reference comparison.
func FuzzWheel(f *testing.F) {
	for _, s := range []int64{1, 42, 0xdead} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		driveAgainstReference(t, seed, 120)
	})
}
