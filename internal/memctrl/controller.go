package memctrl

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/rowtable"
	"repro/internal/sim"
)

// Request is one DRAM access (an LLC miss or writeback) bound for this
// controller's sub-channel.
type Request struct {
	Arrival Tick
	Bank    int
	Row     uint32
	IsWrite bool
	Core    int
	Token   uint64
	// Notify requests a completion callback (demand loads). Store-miss
	// fills and writebacks set it false.
	Notify bool

	// seq is the controller-assigned enqueue sequence number; it breaks
	// full FR-FCFS ties (same hit class, same start time) in favour of the
	// oldest request, matching flat queue order.
	seq uint64
}

// Fixed controller and device parameters of the Table-2 machine.
const (
	// WriteHi / WriteLo are the write-drain watermarks.
	WriteHi, WriteLo = 24, 4
	// ChipLatency is added to every load completion (LLC fill + on-chip
	// traversal): 16 ns.
	ChipLatency Tick = 16 * sim.TicksPerNS
	// GangSampleDur is the sub-channel blockage of one 32-bank explicit
	// sampling burst ahead of a DRFMab (411 ns round - 280 ns DRFMab).
	GangSampleDur Tick = 131 * sim.TicksPerNS
	// RefsPerWindow is the number of REF commands per tREFW (8192); every
	// tracker's reset period is this number, scaled by the run's window.
	RefsPerWindow = 8192
)

// Config holds controller policy parameters.
type Config struct {
	// MOPCap is the Minimalist-Open-Page close-after-N-column-accesses
	// limit (4, matching the MOP4 mapping's burst).
	MOPCap int
	// EnableAudit attaches the security auditor (per-row maps; costs
	// performance, used by attack experiments).
	EnableAudit bool
	// EnableCharacterization counts demand activations per (bank, row)
	// without any resets, for the Table-3 workload characterisation.
	EnableCharacterization bool
}

// DefaultConfig returns the baseline controller policy.
func DefaultConfig() Config {
	return Config{MOPCap: 4}
}

// Controller schedules requests onto one DRAM sub-channel with FR-FCFS,
// open-page + MOP close, periodic refresh, and mitigation hooks.
type Controller struct {
	cfg Config
	dev *dram.SubChannel
	mit Mitigator

	sched   scheduler
	nextSeq uint64
	// allBanks is the cached 0..N-1 index set handed to prepBanks for
	// all-bank mitigation ops (avoids a per-op allocation).
	allBanks []int

	draining      bool
	nextRefresh   Tick
	refIndex      uint64
	hits          []int
	sampleOnClose []bool

	onDone func(core int, token uint64, done Tick)

	// Auditor is the optional security oracle (nil when disabled).
	Auditor *Auditor

	// RowACTs counts demand activations per packed (bank,row) key when
	// characterisation is enabled (nil otherwise).
	RowACTs *rowtable.Table

	// Obs is the optional per-sub-channel metrics recorder. Every hook is
	// behind a nil check, so a run without metrics pays one predictable
	// branch per site and the simulated schedule is untouched either way.
	Obs *obs.SubRecorder

	// Stats.
	Activations  uint64
	RowHits      uint64
	ReadsServed  uint64
	WritesServed uint64
	LatencySum   Tick
	MitStallBank Tick // bank-ticks spent stalled by mitigation ops
	RefreshStall Tick
}

// New builds a controller over device dev with mitigation policy mit.
// onDone is invoked for every completed demand load.
func New(cfg Config, dev *dram.SubChannel, mit Mitigator,
	onDone func(core int, token uint64, done Tick)) (*Controller, error) {
	if cfg.MOPCap <= 0 {
		return nil, fmt.Errorf("memctrl: invalid config %+v", cfg)
	}
	if n := dev.NumBanks(); n > maxBanks {
		return nil, fmt.Errorf("memctrl: %d banks exceed the scheduler's limit of %d", n, maxBanks)
	}
	if mit == nil {
		mit = None{}
	}
	c := &Controller{
		cfg:           cfg,
		dev:           dev,
		mit:           mit,
		allBanks:      make([]int, dev.NumBanks()),
		hits:          make([]int, dev.NumBanks()),
		sampleOnClose: make([]bool, dev.NumBanks()),
		onDone:        onDone,
		nextRefresh:   dev.Timings.TREFI,
	}
	for i := range c.allBanks {
		c.allBanks[i] = i
	}
	c.sched = newBankedSched(c, dev.NumBanks())
	if cfg.EnableAudit {
		c.Auditor = NewAuditor(1<<31, RefsPerWindow)
	}
	if cfg.EnableCharacterization {
		c.RowACTs = rowtable.New(1 << 12)
	}
	return c, nil
}

// Device exposes the underlying sub-channel (stats, tests).
func (c *Controller) Device() *dram.SubChannel { return c.dev }

// Mitigator exposes the attached policy.
func (c *Controller) Mitigator() Mitigator { return c.mit }

// Enqueue adds a request. The caller must lower the controller's wake time
// to the request's arrival if that is earlier: the bound Process returned
// did not know of it.
func (c *Controller) Enqueue(r Request) {
	r.seq = c.nextSeq
	c.nextSeq++
	c.sched.enqueue(r)
}

// QueueLens reports pending reads and writes.
func (c *Controller) QueueLens() (reads, writes int) { return c.sched.lens() }

// Process services everything serviceable at time now and returns the next
// time the controller needs to run.
func (c *Controller) Process(now Tick) (Tick, error) {
	for {
		if now >= c.nextRefresh {
			if err := c.doRefresh(); err != nil {
				return 0, err
			}
			continue
		}
		req, start, ok := c.sched.pick(now, c.wantWrites())
		if !ok {
			break
		}
		if err := c.service(req, start); err != nil {
			return 0, err
		}
	}
	return c.nextWake(now), nil
}

// wantWrites updates and reports write-drain mode.
func (c *Controller) wantWrites() bool {
	reads, writes := c.sched.lens()
	if c.draining {
		if writes <= WriteLo {
			c.draining = false
		}
	} else if writes >= WriteHi || (reads == 0 && writes > 0) {
		c.draining = true
	}
	return c.draining
}

// nextWake reports a lower bound on the next time the controller can take
// any action: no command can issue, and no controller state can change,
// strictly before the returned tick (absent a new arrival, which lowers the
// system's wake independently). Only Process may call it, right after
// wantWrites, because the bound rests on the drain state that call left:
//
//   - Draining implies more than WriteLo writes are queued. Arrivals only
//     grow the queues, so the drain stays open until a write is serviced,
//     and reads are ineligible however many wakes run before then: the
//     bound folds writes alone (the quiescence fast-forward).
//   - Otherwise only reads can start next, unless none are queued: a drain
//     that just closed at WriteLo can leave writes with no reads, and the
//     next wantWrites reopens it, so the bound folds writes.
func (c *Controller) nextWake(now Tick) Tick {
	reads, _ := c.sched.lens()
	w := sim.MinTick(c.nextRefresh, c.sched.minStart(c.draining || reads == 0))
	if w <= now {
		w = now + 1
	}
	return w
}

// closeBank precharges bank b no earlier than after, honouring a pending
// Pre+Sample. It returns the precharge issue time.
func (c *Controller) closeBank(b int, after Tick) (Tick, error) {
	open := c.dev.OpenRow(b)
	if open == dram.NoRow {
		return after, nil
	}
	row := uint32(open)
	t := sim.MaxTick(after, c.dev.EarliestPrecharge(b))
	sample := c.sampleOnClose[b]
	if err := c.dev.Precharge(t, b, sample); err != nil {
		return 0, err
	}
	c.sched.dirtyBank(b)
	c.hits[b] = 0
	if sample {
		c.sampleOnClose[b] = false
		c.mit.OnSampled(t, b, row)
	}
	return t, nil
}

// service executes the full command sequence for one request starting at
// start (already validated against bank state).
func (c *Controller) service(r Request, start Tick) error {
	b := r.Bank
	open := c.dev.OpenRow(b)
	t := start
	var dec Decision
	activated := false
	if c.Obs != nil {
		c.Obs.OnQueueWait(b, start-r.Arrival)
	}

	if open != dram.NoRow && open != int64(r.Row) {
		var err error
		if t, err = c.closeBank(b, t); err != nil {
			return err
		}
		open = c.dev.OpenRow(b)
	}
	if open == dram.NoRow {
		dec = c.mit.OnActivate(t, b, r.Row)
		if len(dec.PreOps) > 0 {
			var err error
			if t, err = c.execOps(dec.PreOps, t); err != nil {
				return err
			}
		}
		at := sim.MaxTick(t, c.dev.EarliestActivate(b))
		if err := c.dev.Activate(at, b, r.Row); err != nil {
			return err
		}
		c.sched.dirtyBank(b)
		if c.Auditor != nil {
			c.Auditor.OnActivate(b, r.Row)
		}
		if c.RowACTs != nil {
			c.RowACTs.Incr(rowtable.Key(b, r.Row), 1)
		}
		c.Activations++
		if c.Obs != nil {
			c.Obs.OnAct(b)
		}
		c.sampleOnClose[b] = dec.Sample
		activated = true
		t = at
	}

	ct := sim.MaxTick(t, c.dev.EarliestColumn(b))
	var done Tick
	var err error
	if r.IsWrite {
		done, err = c.dev.Write(ct, b)
		c.WritesServed++
	} else {
		done, err = c.dev.Read(ct, b)
		c.ReadsServed++
	}
	if err != nil {
		return err
	}
	c.sched.dirtyBank(b)
	c.hits[b]++
	if !activated {
		c.RowHits++
		if c.Obs != nil {
			c.Obs.OnHit(b)
		}
	}
	if !r.IsWrite {
		c.LatencySum += done - r.Arrival
		if c.Obs != nil {
			c.Obs.OnReadLatency(done - r.Arrival)
		}
		if r.Notify && c.onDone != nil {
			c.onDone(r.Core, r.Token, done+ChipLatency)
		}
	}

	if (activated && dec.CloseNow) || c.hits[b] >= c.cfg.MOPCap {
		if _, err := c.closeBank(b, done); err != nil {
			return err
		}
		if activated && len(dec.PostOps) > 0 {
			if _, err := c.execOps(dec.PostOps, done); err != nil {
				return err
			}
		}
	}
	return nil
}

// doRefresh closes every open row (honouring pending samples) and issues an
// all-bank REF, then runs any mitigator refresh ops.
func (c *Controller) doRefresh() error {
	t := c.nextRefresh
	n := c.dev.NumBanks()
	for b := 0; b < n; b++ {
		if c.dev.OpenRow(b) != dram.NoRow {
			pt, err := c.closeBank(b, t)
			if err != nil {
				return err
			}
			_ = pt
		}
	}
	start := t
	for b := 0; b < n; b++ {
		if e := c.dev.EarliestActivate(b); e > start {
			start = e
		}
	}
	if err := c.dev.Refresh(start); err != nil {
		return err
	}
	c.sched.dirtyAll()
	c.RefreshStall += c.dev.Timings.TRFC
	if c.Obs != nil {
		c.Obs.OnRefresh(start, c.refIndex, c.dev.Timings.TRFC)
	}
	refIdx := c.refIndex
	c.refIndex++
	c.nextRefresh += c.dev.Timings.TREFI
	if c.Auditor != nil {
		c.Auditor.OnRefresh(refIdx)
	}
	if ops := c.mit.OnRefresh(start, refIdx); len(ops) > 0 {
		if _, err := c.execOps(ops, start+c.dev.Timings.TRFC); err != nil {
			return err
		}
	}
	return nil
}

// execOps performs mitigation operations, each starting no earlier than
// after, and returns the completion time of the latest one. Ops on disjoint
// banks overlap (e.g., DREAM-R's end-of-window explicit samples across the
// 8 set banks run concurrently); ordering between ops that touch the same
// banks emerges from bank-readiness (a DRFM after an explicit sample of the
// same bank waits for the sample's stall to clear).
func (c *Controller) execOps(ops []Op, after Tick) (Tick, error) {
	end := after
	for _, op := range ops {
		t, err := c.execOp(op, after)
		if err != nil {
			return 0, err
		}
		if t > end {
			end = t
		}
	}
	return end, nil
}

func (c *Controller) execOp(op Op, after Tick) (Tick, error) {
	ti := c.dev.Timings
	switch op.Kind {
	case OpNRR:
		t, err := c.prepBanks([]int{op.Bank}, after)
		if err != nil {
			return 0, err
		}
		mits, err := c.dev.NRR(t, op.Bank, op.Row)
		if err != nil {
			return 0, err
		}
		c.sched.dirtyBank(op.Bank)
		c.reportMits(t+ti.TNRR, mits)
		c.MitStallBank += ti.TNRR
		if c.Obs != nil {
			c.Obs.AddStall(obs.CauseNRR, op.Bank, ti.TNRR)
			c.Obs.OnOp(t, obs.CauseNRR, op.Bank, op.Row)
		}
		return t + ti.TNRR, nil

	case OpDRFMsb:
		set := c.dev.SameBankSet(op.Bank)
		t, err := c.prepBanks(set, after)
		if err != nil {
			return 0, err
		}
		mits, err := c.dev.DRFMsb(t, op.Bank)
		if err != nil {
			return 0, err
		}
		for _, b := range set {
			c.sched.dirtyBank(b)
		}
		c.reportMits(t+ti.TDRFMsb, mits)
		c.MitStallBank += ti.TDRFMsb * Tick(len(set))
		if c.Obs != nil {
			c.Obs.AddStallSet(obs.CauseDRFMsb, set, ti.TDRFMsb)
			c.Obs.OnOp(t, obs.CauseDRFMsb, op.Bank, 0)
		}
		return t + ti.TDRFMsb, nil

	case OpDRFMab:
		t, err := c.prepBanks(nil, after)
		if err != nil {
			return 0, err
		}
		mits, err := c.dev.DRFMab(t)
		if err != nil {
			return 0, err
		}
		c.sched.dirtyAll()
		c.reportMits(t+ti.TDRFMab, mits)
		c.MitStallBank += ti.TDRFMab * Tick(c.dev.NumBanks())
		if c.Obs != nil {
			c.Obs.AddStallAll(obs.CauseDRFMab, ti.TDRFMab)
			c.Obs.OnOp(t, obs.CauseDRFMab, 0, 0)
		}
		return t + ti.TDRFMab, nil

	case OpExplicitSample:
		t, err := c.prepBanks([]int{op.Bank}, after)
		if err != nil {
			return 0, err
		}
		end, err := c.dev.ExplicitSample(t, op.Bank, op.Row)
		if err != nil {
			return 0, err
		}
		c.sched.dirtyBank(op.Bank)
		if c.Auditor != nil {
			c.Auditor.OnActivate(op.Bank, op.Row)
		}
		c.mit.OnSampled(end, op.Bank, op.Row)
		c.MitStallBank += end - t
		if c.Obs != nil {
			c.Obs.AddStall(obs.CauseSample, op.Bank, end-t)
			c.Obs.OnOp(t, obs.CauseSample, op.Bank, op.Row)
		}
		return end, nil

	case OpGangMitigate:
		t, err := c.prepBanks(nil, after)
		if err != nil {
			return 0, err
		}
		for _, rows := range op.GangRows {
			if err := c.dev.ExplicitSampleAll(t, rows, GangSampleDur); err != nil {
				return 0, err
			}
			if c.Auditor != nil {
				for b, row := range rows {
					if row != SkipRow {
						c.Auditor.OnActivate(b, row)
					}
				}
			}
			t += GangSampleDur
			mits, err := c.dev.DRFMab(t)
			if err != nil {
				return 0, err
			}
			t += ti.TDRFMab
			c.sched.dirtyAll()
			c.reportMits(t, mits)
			c.MitStallBank += (GangSampleDur + ti.TDRFMab) * Tick(c.dev.NumBanks())
			if c.Obs != nil {
				c.Obs.AddStallAll(obs.CauseGang, GangSampleDur+ti.TDRFMab)
				c.Obs.OnOp(t, obs.CauseGang, 0, 0)
			}
		}
		return t, nil

	case OpStallAll:
		c.dev.StallAll(after, op.Dur)
		c.sched.dirtyAll()
		c.MitStallBank += op.Dur * Tick(c.dev.NumBanks())
		if c.Obs != nil {
			c.Obs.AddStallAll(obs.CauseABO, op.Dur)
			c.Obs.OnOp(after, obs.CauseABO, 0, 0)
		}
		return after + op.Dur, nil

	default:
		return 0, fmt.Errorf("memctrl: unknown op kind %d", op.Kind)
	}
}

// prepBanks closes every open row in the target set (nil = all banks) and
// returns the time at which all of them are fully idle (precharge complete
// and past any stall).
func (c *Controller) prepBanks(set []int, after Tick) (Tick, error) {
	idx := set
	if idx == nil {
		idx = c.allBanks
	}
	t := after
	for _, b := range idx {
		if c.dev.OpenRow(b) != dram.NoRow {
			if _, err := c.closeBank(b, after); err != nil {
				return 0, err
			}
		}
		if e := c.dev.EarliestActivate(b); e > t {
			t = e
		}
	}
	return t, nil
}

func (c *Controller) reportMits(now Tick, mits []dram.Mitigation) {
	if len(mits) == 0 {
		return
	}
	if c.Auditor != nil {
		for _, m := range mits {
			c.Auditor.OnMitigate(m.Bank, m.Row)
		}
	}
	if c.Obs != nil {
		for _, m := range mits {
			c.Obs.OnMitigated(now, m.Bank, m.Row)
		}
	}
	c.mit.OnMitigations(now, mits)
}

// AvgReadLatency reports mean demand-read latency.
func (c *Controller) AvgReadLatency() Tick {
	if c.ReadsServed == 0 {
		return 0
	}
	return c.LatencySum / Tick(c.ReadsServed)
}

// RowHitRate reports column accesses that hit the open row.
func (c *Controller) RowHitRate() float64 {
	total := c.ReadsServed + c.WritesServed
	if total == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(total)
}
