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
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Tick aliases sim.Tick.
type Tick = sim.Tick

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

	// MaxTime aborts runaway simulations.
	MaxTime Tick

	// OnProgress, when non-nil, is invoked periodically from Run's event
	// loop with the current simulated time and the cumulative count of
	// events drained (completions delivered plus controller process calls).
	// Returning a non-nil error aborts the run with that error — the hook
	// is how wall-clock watchdogs convert livelocks into run failures
	// without the simulator itself ever reading the host clock.
	OnProgress func(now Tick, events uint64) error

	// Obs, when non-nil, receives per-bank metrics from every controller
	// and epoch samples from the event loop. Collection never alters the
	// simulated schedule: metrics-on and metrics-off runs are bit-identical.
	Obs *obs.Run
}

// Fixed on-chip latencies of the Table-2 machine.
const (
	// ReqLatency is core-to-controller request latency (10 ns).
	ReqLatency Tick = 10 * sim.TicksPerNS
	// LLCHitLatency is the load-to-use latency of an LLC hit.
	LLCHitLatency = 40 * sim.CPUCycle
)

// DefaultConfig returns the Table-2 machine.
func DefaultConfig() Config {
	return Config{
		CoreCfg:  cpu.DefaultConfig(),
		CacheCfg: cache.DefaultConfig(),
		Geometry: addrmap.Default(),
		Timings:  dram.DefaultTimings(),
		CtrlCfg:  memctrl.DefaultConfig(),
		MaxTime:  sim.Forever,
	}
}

// System is the assembled machine.
type System struct {
	cfg    Config
	cores  []*cpu.Core
	llc    *cache.Cache
	mapper addrmap.Mapper
	ctrls  []*memctrl.Controller

	now      Tick
	wakes    []Tick
	finished int
	coreDone []bool

	// pending holds demand-load completions not yet delivered.
	pending completionHeap

	// Event-loop statistics (LoopStats).
	iters  uint64
	events uint64
}

// completion is a demand load's data returning to its core at tick at.
type completion struct {
	at    Tick
	core  int
	token uint64
}

// before orders completions by (at, core, token). No two completions share
// all three, so pop order does not depend on the heap's shape.
func (c completion) before(d completion) bool {
	if c.at != d.at {
		return c.at < d.at
	}
	if c.core != d.core {
		return c.core < d.core
	}
	return c.token < d.token
}

// completionHeap is a binary min-heap of completions under before. It holds
// few at a time: on 8-core runs of eight workloads, with and without
// mitigation, 5–23 completions were in flight on average and 64 at most, all
// landing within about a thousand ticks, so bucketing them by time saves
// nothing a heap of that depth would spend.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < len(s) && s[l].before(s[small]) {
			small = l
		}
		if r := 2*i + 2; r < len(s) && s[r].before(s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}

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
	// A completion answers one of a core's at most MSHRs outstanding
	// misses, so the heap never outgrows this.
	s.pending = make(completionHeap, 0, len(s.cores)*cfg.CoreCfg.MSHRs)
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
	return s, nil
}

// Load implements cpu.Port.
func (s *System) Load(core int, when Tick, lineAddr uint64, token uint64) (Tick, bool) {
	res := s.llc.Access(lineAddr, false)
	if res.Writeback {
		s.enqueue(res.WritebackAddr, when, true, core, 0, false)
	}
	if res.Hit {
		return when + LLCHitLatency, false
	}
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
		s.enqueue(lineAddr, when, false, core, 0, false)
	}
}

func (s *System) enqueue(lineAddr uint64, when Tick, isWrite bool, core int, token uint64, notify bool) {
	loc := s.mapper.Map(lineAddr)
	arrival := sim.MaxTick(when+ReqLatency, s.now)
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
	s.pending.push(completion{at: done, core: core, token: token})
}

// progressStride is how many event-loop iterations pass between OnProgress
// callbacks: frequent enough that a watchdog fires promptly, rare enough
// that the hook costs one masked branch per iteration on the hot path.
const progressStride = 512

// Run executes until every core finishes its trace (or MaxTime).
//
// Each iteration advances to the earliest of the controller wakes and the
// first pending completion. It delivers every completion due at that tick
// in (core, token) order, checking only the cores that completed (a core
// can finish only inside its own Complete), then runs the controllers due.
// A controller schedules every completion after the tick it runs at, so the
// heap never holds one earlier than now. Controller wakes stay in the flat
// wakes array: with two sub-channels the per-iteration scan is two
// compares, while queueing wakes as events cost a remove-and-push round
// trip every time an arrival lowered one.
func (s *System) Run() error {
	for _, c := range s.cores {
		c.Step()
	}
	s.refreshDone()
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
		for len(s.pending) > 0 && s.pending[0].at == t {
			c := s.pending.pop()
			s.events++
			s.cores[c.core].Complete(c.token, t)
			if !s.coreDone[c.core] {
				if done, _ := s.cores[c.core].Finished(); done {
					s.coreDone[c.core] = true
					s.finished++
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
