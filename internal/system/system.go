// Package system assembles the full simulated machine of paper Table 2:
// eight 4 GHz out-of-order cores sharing an 8 MB LLC, one DDR5 channel with
// two independent sub-channels of 32 banks each, a memory controller per
// sub-channel, and a Rowhammer mitigation policy attached to each
// controller. It drives everything with a deterministic event loop.
package system

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/evq"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Tick aliases sim.Tick.
type Tick = sim.Tick

// EngineKind selects the event-loop implementation.
type EngineKind int

const (
	// EngineWheel is the default: completions live in a timing-wheel event
	// queue with batched same-tick delivery and O(1) bitmap search for the
	// next event time, while controller wakes stay in a flat per-controller
	// array — at two sub-channels a two-element scan beats any queue's
	// maintenance cost, and hundreds of in-flight completions are where the
	// wheel's slot extraction beats a binary heap. Core-finish checks are
	// targeted at the cores that completed instead of a full rescan.
	EngineWheel EngineKind = iota
	// EngineLegacy is the original wake-scan + completion-heap loop,
	// retained as the equivalence reference: both engines must produce
	// bit-identical simulations.
	EngineLegacy
)

// Config describes one simulated machine.
type Config struct {
	CoreCfg  cpu.Config
	CacheCfg cache.Config
	Geometry addrmap.Geometry
	Timings  dram.Timings
	CtrlCfg  memctrl.Config

	// NewMitigator builds the mitigation policy for sub-channel sub; nil
	// runs unprotected.
	NewMitigator func(sub int) memctrl.Mitigator

	// ReqLatency is core-to-controller request latency.
	ReqLatency Tick
	// LLCHitLatency is the load-to-use latency of an LLC hit.
	LLCHitLatency Tick

	// MaxTime aborts runaway simulations.
	MaxTime Tick

	// OnProgress, when non-nil, is invoked periodically from Run's event
	// loop with the current simulated time and the cumulative count of
	// events drained (completions delivered plus controller process calls).
	// Returning a non-nil error aborts the run with that error — the hook
	// is how wall-clock watchdogs convert livelocks into run failures
	// without the simulator itself ever reading the host clock.
	OnProgress func(now Tick, events uint64) error

	// Engine selects the event-loop implementation (EngineWheel by
	// default; EngineLegacy keeps the original loop for equivalence
	// testing). Both produce identical simulations.
	Engine EngineKind

	// Obs, when non-nil, receives per-bank metrics from every controller
	// and epoch samples from the event loop. Collection never alters the
	// simulated schedule: metrics-on and metrics-off runs are bit-identical.
	Obs *obs.Run
}

// DefaultConfig returns the Table-2 machine.
func DefaultConfig() Config {
	return Config{
		CoreCfg:       cpu.DefaultConfig(),
		CacheCfg:      cache.DefaultConfig(),
		Geometry:      addrmap.Default(),
		Timings:       dram.DefaultTimings(),
		CtrlCfg:       memctrl.DefaultConfig(),
		ReqLatency:    sim.NS(10),
		LLCHitLatency: 40 * sim.CPUCycle,
		MaxTime:       sim.Forever,
	}
}

type completion struct {
	at    Tick
	core  int
	token uint64
}

// completionHeap is a hand-rolled binary min-heap. container/heap would box
// every completion through interface{} on Push and Pop — two heap
// allocations per demand load, the single largest allocation source on the
// mitigated-run hot path. Less is a total order (no two completions share
// (at, core, token)), so pop order — and hence the simulation — is
// independent of the heap implementation.
type completionHeap []completion

func (h completionHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].core != h[j].core {
		return h[i].core < h[j].core
	}
	return h[i].token < h[j].token
}

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *completionHeap) pop() completion {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// System is the assembled machine.
type System struct {
	cfg    Config
	cores  []*cpu.Core
	llc    *cache.Cache
	mapper addrmap.Mapper
	ctrls  []*memctrl.Controller

	now       Tick
	wakes     []Tick
	pending   completionHeap
	finished  int
	coreDone  []bool
	err       error
	demandRds uint64
	fillRds   uint64
	wbWrites  uint64

	// Wheel-engine state (nil / unused under EngineLegacy).
	wheel *evq.Wheel
	batch []evq.Event

	// Event-loop statistics (LoopStats).
	iters  uint64
	events uint64
}

// evComplete is the wheel event kind for demand-load completions; A carries
// the core index and B the segment token, making the queue's (At, Kind, A, B)
// order match the legacy completion heap's (at, core, token) order.
const evComplete uint8 = 0

// New assembles a machine running one trace per core.
func New(cfg Config, traces []cpu.Trace) (*System, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("system: no traces")
	}
	if cfg.MaxTime == 0 {
		cfg.MaxTime = sim.Forever
	}
	mapper, err := addrmap.NewMOP4(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.CacheCfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, llc: llc, mapper: mapper}

	for sub := 0; sub < cfg.Geometry.SubChannels; sub++ {
		dev, err := dram.NewSubChannel(cfg.Timings, cfg.Geometry.Banks)
		if err != nil {
			return nil, err
		}
		var mit memctrl.Mitigator
		if cfg.NewMitigator != nil {
			mit = cfg.NewMitigator(sub)
		}
		ctrl, err := memctrl.New(cfg.CtrlCfg, dev, mit, s.onDone)
		if err != nil {
			return nil, err
		}
		if cfg.Obs != nil {
			ctrl.Obs = cfg.Obs.Sub(sub)
		}
		s.ctrls = append(s.ctrls, ctrl)
		s.wakes = append(s.wakes, sim.Forever)
	}

	for i, tr := range traces {
		core, err := cpu.New(i, cfg.CoreCfg, tr, s)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, core)
	}
	s.coreDone = make([]bool, len(s.cores))
	if cfg.Obs != nil {
		cfg.Obs.Bind(obs.Sources{
			Retired: func() int64 {
				var n int64
				for _, c := range s.cores {
					n += c.Retired
				}
				return n
			},
			Device: func() obs.DeviceTotals {
				var d obs.DeviceTotals
				for _, ctrl := range s.ctrls {
					dev := ctrl.Device()
					d.Reads += dev.Reads
					d.Writes += dev.Writes
					d.Mitigations += dev.MitigationCount
					d.BusBusy += dev.BusBusy
				}
				return d
			},
		})
	}
	if cfg.Engine == EngineWheel {
		s.wheel = evq.NewWheel(0)
		s.batch = make([]evq.Event, 0, 64)
	}
	return s, nil
}

// Load implements cpu.Port.
func (s *System) Load(core int, when Tick, lineAddr uint64, token uint64) (Tick, bool) {
	res := s.llc.Access(lineAddr, false)
	if res.Writeback {
		s.enqueue(res.WritebackAddr, when, true, core, 0, false)
	}
	if res.Hit {
		return when + s.cfg.LLCHitLatency, false
	}
	s.demandRds++
	s.enqueue(lineAddr, when, false, core, token, true)
	return 0, true
}

// Store implements cpu.Port. Stores are posted: a miss allocates the line
// and issues a non-blocking fill read.
func (s *System) Store(core int, when Tick, lineAddr uint64) {
	res := s.llc.Access(lineAddr, true)
	if res.Writeback {
		s.enqueue(res.WritebackAddr, when, true, core, 0, false)
	}
	if !res.Hit {
		s.fillRds++
		s.enqueue(lineAddr, when, false, core, 0, false)
	}
}

func (s *System) enqueue(lineAddr uint64, when Tick, isWrite bool, core int, token uint64, notify bool) {
	if isWrite {
		s.wbWrites++
	}
	loc := s.mapper.Map(lineAddr)
	arrival := sim.MaxTick(when+s.cfg.ReqLatency, s.now)
	s.ctrls[loc.Sub].Enqueue(memctrl.Request{
		Arrival: arrival,
		Bank:    loc.Bank,
		Row:     loc.Row,
		IsWrite: isWrite,
		Core:    core,
		Token:   token,
		Notify:  notify,
	})
	if arrival < s.wakes[loc.Sub] {
		s.wakes[loc.Sub] = arrival
	}
}

// onDone receives demand-load completions from the controllers.
func (s *System) onDone(core int, token uint64, done Tick) {
	if s.wheel != nil {
		s.wheel.Push(evq.Event{At: int64(done), Kind: evComplete, A: int32(core), B: token})
		return
	}
	s.pending.push(completion{at: done, core: core, token: token})
}

// progressStride is how many event-loop iterations pass between OnProgress
// callbacks: frequent enough that a watchdog fires promptly, rare enough
// that the hook costs one masked branch per iteration on the hot path.
const progressStride = 512

// Run executes until every core finishes its trace (or MaxTime).
func (s *System) Run() error {
	for _, c := range s.cores {
		c.Step()
	}
	s.refreshDone()
	if s.wheel != nil {
		return s.runWheel()
	}
	return s.runLegacy()
}

// runLegacy is the original event loop: a linear wake scan plus a
// completion-heap peek per iteration, with a full finished-core rescan after
// every tick. Retained as the equivalence reference for the wheel engine.
func (s *System) runLegacy() error {
	for s.finished < len(s.cores) {
		s.iters++
		if s.cfg.OnProgress != nil && s.iters%progressStride == 0 {
			if err := s.cfg.OnProgress(s.now, s.events); err != nil {
				return err
			}
		}
		t := sim.Forever
		for _, w := range s.wakes {
			if w < t {
				t = w
			}
		}
		if len(s.pending) > 0 && s.pending[0].at < t {
			t = s.pending[0].at
		}
		if t >= s.cfg.MaxTime {
			return fmt.Errorf("system: exceeded MaxTime %v at %v (deadlock?)", s.cfg.MaxTime, s.now)
		}
		if t == sim.Forever {
			return fmt.Errorf("system: no pending events but %d cores unfinished", len(s.cores)-s.finished)
		}
		s.now = t
		// Deliver due completions first so cores can issue new requests
		// before controllers decide what to do at this instant.
		for len(s.pending) > 0 && s.pending[0].at <= t {
			c := s.pending.pop()
			s.events++
			s.cores[c.core].Complete(c.token, c.at)
		}
		// New arrivals may lower a wake below the value Process returns;
		// enqueue already handled that via s.wakes.
		if err := s.processControllers(t); err != nil {
			return err
		}
		s.refreshDone()
	}
	return nil
}

// runWheel is the timing-wheel event loop. Completions are typed events in
// the wheel — each iteration pops the whole batch for one tick in (core,
// token) order (the legacy heap order) and delivers it with targeted
// finished checks, since a core can only finish inside its own Complete.
// Controller wakes stay in the flat wakes array: with two sub-channels the
// per-iteration scan is two compares, which beats the remove-and-push round
// trips that keeping wakes as queue events would cost on every lowered
// wake. Earlier versions queued wakes as events (armWake); profiles showed
// the re-arm traffic and its allocations cost more than the scan it saved.
func (s *System) runWheel() error {
	for s.finished < len(s.cores) {
		s.iters++
		if s.cfg.OnProgress != nil && s.iters%progressStride == 0 {
			if err := s.cfg.OnProgress(s.now, s.events); err != nil {
				return err
			}
		}
		t := sim.Forever
		for _, w := range s.wakes {
			if w < t {
				t = w
			}
		}
		// The bounded pop tests and extracts in one slot search; a batch
		// popped at a tick the MaxTime check then rejects is unobservable,
		// because an aborted run discards the System wholesale.
		batch, ct, haveComp := s.wheel.PopNextBefore(int64(t), s.batch[:0])
		s.batch = batch
		if haveComp {
			t = Tick(ct)
		}
		if t >= s.cfg.MaxTime {
			return fmt.Errorf("system: exceeded MaxTime %v at %v (deadlock?)", s.cfg.MaxTime, s.now)
		}
		if t == sim.Forever {
			return fmt.Errorf("system: no pending events but %d cores unfinished", len(s.cores)-s.finished)
		}
		s.now = t
		if haveComp {
			for _, e := range s.batch {
				s.events++
				core := int(e.A)
				s.cores[core].Complete(e.B, t)
				if !s.coreDone[core] {
					if done, _ := s.cores[core].Finished(); done {
						s.coreDone[core] = true
						s.finished++
					}
				}
			}
		}
		if err := s.processControllers(t); err != nil {
			return err
		}
	}
	return nil
}

// processControllers runs every controller due at tick t, in sub-channel
// order.
func (s *System) processControllers(t Tick) error {
	for i, ctrl := range s.ctrls {
		if s.wakes[i] <= t {
			s.events++
			w, err := ctrl.Process(t)
			if err != nil {
				return err
			}
			s.wakes[i] = w
		}
	}
	return nil
}

// LoopStats reports event-loop iterations and drained events (completions
// delivered plus controller Process calls) so far.
func (s *System) LoopStats() (iters, events uint64) { return s.iters, s.events }

func (s *System) refreshDone() {
	for i, c := range s.cores {
		if done, _ := c.Finished(); done && !s.coreDone[i] {
			s.coreDone[i] = true
			s.finished++
		}
	}
}

// Cores exposes the core models (stats).
func (s *System) Cores() []*cpu.Core { return s.cores }

// Controllers exposes the per-sub-channel controllers (stats).
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// LLC exposes the shared cache (stats).
func (s *System) LLC() *cache.Cache { return s.llc }

// Now reports the current simulation time.
func (s *System) Now() Tick { return s.now }

// FinishObs seals the attached metrics run, if any: it installs the
// device-side per-bank counters and any mitigator gauges, then takes the
// tail epoch sample and drives the configured exporters. Call it once,
// after Run returns successfully.
func (s *System) FinishObs() error {
	o := s.cfg.Obs
	if o == nil {
		return nil
	}
	for i, ctrl := range s.ctrls {
		dev := ctrl.Device()
		o.SetDeviceBankStats(i, dev.BankActivations(), dev.BankMitigations())
		if g, ok := ctrl.Mitigator().(obs.Gauger); ok {
			o.SetGauges(i, g.ObsGauges())
		}
	}
	end := s.FinishTime()
	if s.now > end {
		end = s.now
	}
	return o.Finish(end)
}

// FinishTime reports the latest core finish time.
func (s *System) FinishTime() Tick {
	var t Tick
	for _, c := range s.cores {
		if done, ft := c.Finished(); done && ft > t {
			t = ft
		}
	}
	return t
}
