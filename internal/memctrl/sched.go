package memctrl

import (
	"math/bits"

	"repro/internal/dram"
	"repro/internal/sim"
)

// scheduler is the controller's pending-request store. It realises FR-FCFS:
// among requests startable at now, row hits beat misses, earlier start times
// beat later ones, and remaining ties go to the oldest request (lowest
// enqueue sequence number). Production runs bankedSched; the tests swap in
// a flat reference that rescans whole queues and must schedule identically.
type scheduler interface {
	enqueue(r Request)
	lens() (reads, writes int)
	// pick removes and returns the best request startable at now from the
	// read queue (or the write queue when fromWrite is set), along with its
	// service-start time.
	pick(now Tick, fromWrite bool) (Request, Tick, bool)
	// minStart reports the earliest service-start time over the queued
	// reads (or writes when writes is set), or sim.Forever.
	minStart(writes bool) Tick
	// dirtyBank invalidates cached timing state for bank b after the
	// controller issued a command that moved the bank's horizons.
	dirtyBank(b int)
	// dirtyAll invalidates every bank (REF, DRFMab, whole-channel stalls).
	dirtyAll()
}

// maxBanks bounds the banks one banked scheduler serves: its active and
// dirty sets are one bit per bank of a uint64.
const maxBanks = 64

// bankedQueue is one direction (reads or writes) of the banked scheduler.
// Its invariants, each exact rather than heuristic:
//
//   - reqs[b] is bank b's FIFO in enqueue (seq) order. pick removes with an
//     order-preserving shift, so the first request of a FIFO that
//     qualifies is always the bank's oldest qualifying one.
//   - For a clean bank (bit b of dirty clear), hitLocal[b] is the minimum of
//     max(arrival, EarliestColumnLocal) over requests to the open row, and
//     miss[b] the minimum of max(arrival, miss horizon) over the rest, where
//     the miss horizon is EarliestPrecharge with a row open and
//     EarliestActivate without. hitLocal leaves out the shared data bus,
//     whose horizon moves on every column access in the sub-channel: it is
//     applied as max(hitLocal, busReady) at query time, and since max with
//     a constant distributes over min, that is the bank's exact earliest
//     hit start. A request that arrived by its class's horizon starts at
//     the horizon, the least any request of the class can, so a scan of the
//     FIFO may stop at the first such request of each class.
//   - active has bit b set iff reqs[b] is non-empty. dirty has bit b set
//     when a command moved bank b's horizons or a request left its FIFO;
//     only those banks are recomputed, and an idle bank's bit is dropped
//     when it next receives work (its aggregate is then the newcomer's).
//   - While aggOK is set, no active bank is dirty and aggHit/aggMiss are
//     the minima of hitLocal/miss over the active banks, so the earliest
//     start over the whole direction is min(aggMiss, max(aggHit, busReady)).
type bankedQueue struct {
	reqs     [][]Request
	hitLocal []Tick
	miss     []Tick
	active   uint64
	dirty    uint64
	size     int
	aggOK    bool
	aggHit   Tick
	aggMiss  Tick
}

// bankedSched keeps per-bank FIFOs in enqueue order, with per-bank
// earliest-start aggregates that a command to a bank invalidates for that
// bank alone. A probe recomputes only the banks whose state changed, scans
// stop at the first request that can start at its class's earliest time,
// and minStart folds one value per bank instead of rescanning the queue.
type bankedSched struct {
	c      *Controller
	reads  bankedQueue
	writes bankedQueue
}

func newBankedSched(c *Controller, banks int) *bankedSched {
	s := &bankedSched{c: c}
	for _, q := range []*bankedQueue{&s.reads, &s.writes} {
		q.reqs = make([][]Request, banks)
		q.hitLocal = make([]Tick, banks)
		q.miss = make([]Tick, banks)
		for b := range q.reqs {
			// Pre-size each FIFO: most stay shallow, so a small initial
			// capacity absorbs nearly all append growth.
			q.reqs[b] = make([]Request, 0, 16)
		}
	}
	return s
}

func (s *bankedSched) queue(writes bool) *bankedQueue {
	if writes {
		return &s.writes
	}
	return &s.reads
}

// horizons reports bank b's open row and the earliest bank-local starts of
// a hit (column readiness) and of a miss (precharge readiness with a row
// open, activate readiness without). With no row open nothing hits.
func (s *bankedSched) horizons(b int) (open int64, hit, miss Tick) {
	dev := s.c.dev
	open = dev.OpenRow(b)
	if open == dram.NoRow {
		return open, sim.Forever, dev.EarliestActivate(b)
	}
	return open, dev.EarliestColumnLocal(b), dev.EarliestPrecharge(b)
}

func (s *bankedSched) enqueue(r Request) {
	q := s.queue(r.IsWrite)
	b := r.Bank
	bit := uint64(1) << b
	if q.active&bit == 0 {
		q.active |= bit
		q.dirty &^= bit
		q.hitLocal[b], q.miss[b] = sim.Forever, sim.Forever
	}
	q.reqs[b] = append(q.reqs[b], r)
	q.size++
	if q.dirty&bit != 0 {
		return // aggOK is already clear; the next refold recomputes b
	}
	// Enqueue only adds work, so the newcomer folds into the clean bank
	// aggregate and the direction aggregate in O(1) instead of
	// invalidating them (a stale direction aggregate is refolded anyway).
	open, hh, mh := s.horizons(b)
	if int64(r.Row) == open {
		v := sim.MaxTick(r.Arrival, hh)
		q.hitLocal[b] = sim.MinTick(q.hitLocal[b], v)
		q.aggHit = sim.MinTick(q.aggHit, v)
	} else {
		v := sim.MaxTick(r.Arrival, mh)
		q.miss[b] = sim.MinTick(q.miss[b], v)
		q.aggMiss = sim.MinTick(q.aggMiss, v)
	}
}

func (s *bankedSched) lens() (int, int) { return s.reads.size, s.writes.size }

// recompute rebuilds bank b's aggregate, scanning its FIFO only until a hit
// and a miss at their horizons have been seen.
func (s *bankedSched) recompute(q *bankedQueue, b int) {
	open, hh, mh := s.horizons(b)
	hit, miss := sim.Forever, sim.Forever
	for i := range q.reqs[b] {
		r := &q.reqs[b][i]
		if int64(r.Row) == open {
			hit = sim.MinTick(hit, sim.MaxTick(r.Arrival, hh))
		} else {
			miss = sim.MinTick(miss, sim.MaxTick(r.Arrival, mh))
		}
		if hit == hh && miss == mh {
			break
		}
	}
	q.hitLocal[b], q.miss[b] = hit, miss
}

// refold brings the direction aggregate up to date: it recomputes the dirty
// banks that hold work, then folds the per-bank aggregates.
func (s *bankedSched) refold(q *bankedQueue) {
	if q.aggOK {
		return
	}
	for m := q.dirty & q.active; m != 0; m &= m - 1 {
		s.recompute(q, bits.TrailingZeros64(m))
	}
	q.dirty &^= q.active
	q.aggHit, q.aggMiss = sim.Forever, sim.Forever
	for m := q.active; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		q.aggHit = sim.MinTick(q.aggHit, q.hitLocal[b])
		q.aggMiss = sim.MinTick(q.aggMiss, q.miss[b])
	}
	q.aggOK = true
}

// busReady reports the earliest command time at which a column burst would
// find the shared data bus free (the global term of EarliestColumn).
func (s *bankedSched) busReady() Tick {
	return s.c.dev.BusFreeAt() - s.c.dev.Timings.TCL
}

func (s *bankedSched) pick(now Tick, fromWrite bool) (Request, Tick, bool) {
	q := s.queue(fromWrite)
	if q.size == 0 {
		return Request{}, 0, false
	}
	s.refold(q)
	// FR-FCFS takes any startable hit over every miss, so the class is
	// settled by the aggregates alone, and so is the start time: the
	// class's earliest start over all banks.
	hit := true
	start := sim.MaxTick(q.aggHit, s.busReady())
	if start > now {
		hit, start = false, q.aggMiss
		if start > now {
			return Request{}, 0, false
		}
	}
	// The winner is the oldest request of that class able to start at
	// start. Only banks whose own class minimum is start hold one; in such
	// a bank every request of the class that arrived by start starts
	// exactly then, and the first in its FIFO is the bank's oldest.
	dev := s.c.dev
	bestBank, bestIdx := -1, -1
	var bestSeq uint64
	for m := q.active; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if (hit && q.hitLocal[b] > start) || (!hit && q.miss[b] != start) {
			continue
		}
		open := dev.OpenRow(b)
		for i := range q.reqs[b] {
			r := &q.reqs[b][i]
			if (int64(r.Row) == open) == hit && r.Arrival <= start {
				if bestIdx < 0 || r.seq < bestSeq {
					bestBank, bestIdx, bestSeq = b, i, r.seq
				}
				break
			}
		}
	}
	fifo := q.reqs[bestBank]
	r := fifo[bestIdx]
	copy(fifo[bestIdx:], fifo[bestIdx+1:])
	q.reqs[bestBank] = fifo[:len(fifo)-1]
	bit := uint64(1) << bestBank
	q.dirty |= bit // the removed request may have defined the aggregate
	if len(fifo) == 1 {
		q.active &^= bit
	}
	q.size--
	q.aggOK = false
	return r, start, true
}

func (s *bankedSched) minStart(writes bool) Tick {
	q := s.queue(writes)
	if q.size == 0 {
		return sim.Forever
	}
	s.refold(q)
	return sim.MinTick(q.aggMiss, sim.MaxTick(q.aggHit, s.busReady()))
}

// invalidate marks the banks in mask dirty; the direction aggregate goes
// stale only if one of them holds work.
func (q *bankedQueue) invalidate(mask uint64) {
	q.dirty |= mask
	if q.active&mask != 0 {
		q.aggOK = false
	}
}

func (s *bankedSched) dirtyBank(b int) {
	s.reads.invalidate(1 << b)
	s.writes.invalidate(1 << b)
}

func (s *bankedSched) dirtyAll() {
	s.reads.invalidate(^uint64(0))
	s.writes.invalidate(^uint64(0))
}
