package system

import (
	"container/heap"
	"fmt"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// legacyHeap is the reference loop's container/heap of completions, ordered
// by (at, core, token) with its own comparison rather than Run's, so the
// two loops share no ordering code.
type legacyHeap []completion

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].core != h[j].core {
		return h[i].core < h[j].core
	}
	return h[i].token < h[j].token
}
func (h legacyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *legacyHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// runLegacy is the reference event loop Run must match: a linear wake scan
// plus a completion-heap peek per iteration, with a full finished-core
// rescan after every tick. Before the first Step it rebuilds each
// controller over the same device and mitigator so that completions land in
// the reference's own heap instead of Run's.
func runLegacy(s *System) error {
	var pending legacyHeap
	for i, old := range s.ctrls {
		ctrl, err := memctrl.New(s.cfg.CtrlCfg, old.Device(), old.Mitigator(),
			func(core int, token uint64, done Tick) {
				heap.Push(&pending, completion{at: done, core: core, token: token})
			})
		if err != nil {
			return err
		}
		s.ctrls[i] = ctrl
	}
	for _, c := range s.cores {
		c.Step()
	}
	s.refreshDone()
	for s.finished < len(s.cores) {
		s.iters++
		t := sim.Forever
		for _, w := range s.wakes {
			if w < t {
				t = w
			}
		}
		if len(pending) > 0 && pending[0].at < t {
			t = pending[0].at
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
		for len(pending) > 0 && pending[0].at <= t {
			c := heap.Pop(&pending).(completion)
			s.events++
			s.cores[c.core].Complete(c.token, c.at)
		}
		if err := s.processControllers(t); err != nil {
			return err
		}
		s.refreshDone()
	}
	return nil
}

// engineFingerprint captures every externally observable outcome of a run:
// per-core retirement and finish, per-controller scheduling and mitigation
// stats, and device-level command counts. Two engines producing equal
// fingerprints on the same input ran the same simulation.
type engineFingerprint struct {
	finish    Tick
	retired   []int64
	coreFin   []Tick
	acts      []uint64
	rowHits   []uint64
	reads     []uint64
	writes    []uint64
	refreshes []uint64
	drfmsbs   []uint64
	drfmabs   []uint64
	nrrs      []uint64
	mits      []uint64
	latency   []Tick
	llcMiss   uint64
}

func fingerprint(sys *System) engineFingerprint {
	fp := engineFingerprint{finish: sys.FinishTime(), llcMiss: sys.LLC().Misses}
	for _, c := range sys.Cores() {
		fp.retired = append(fp.retired, c.Retired)
		_, ft := c.Finished()
		fp.coreFin = append(fp.coreFin, ft)
	}
	for _, ctrl := range sys.Controllers() {
		dev := ctrl.Device()
		fp.acts = append(fp.acts, ctrl.Activations)
		fp.rowHits = append(fp.rowHits, ctrl.RowHits)
		fp.reads = append(fp.reads, dev.Reads)
		fp.writes = append(fp.writes, dev.Writes)
		fp.refreshes = append(fp.refreshes, dev.Refreshes)
		fp.drfmsbs = append(fp.drfmsbs, dev.DRFMsbs)
		fp.drfmabs = append(fp.drfmabs, dev.DRFMabs)
		fp.nrrs = append(fp.nrrs, dev.NRRs)
		fp.mits = append(fp.mits, dev.MitigationCount)
		fp.latency = append(fp.latency, ctrl.LatencySum)
	}
	return fp
}

func equalFP(a, b engineFingerprint) bool {
	if a.finish != b.finish || a.llcMiss != b.llcMiss {
		return false
	}
	eqI := func(x, y []int64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	eqU := func(x, y []uint64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	eqT := func(x, y []Tick) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	return eqI(a.retired, b.retired) && eqT(a.coreFin, b.coreFin) &&
		eqU(a.acts, b.acts) && eqU(a.rowHits, b.rowHits) &&
		eqU(a.reads, b.reads) && eqU(a.writes, b.writes) &&
		eqU(a.refreshes, b.refreshes) && eqU(a.drfmsbs, b.drfmsbs) &&
		eqU(a.drfmabs, b.drfmabs) && eqU(a.nrrs, b.nrrs) &&
		eqU(a.mits, b.mits) && eqT(a.latency, b.latency)
}

// runEngine executes one run, under Run or the runLegacy reference, and
// reports its fingerprint plus loop statistics.
func runEngine(t *testing.T, legacy, mitigated bool, wl string, seed uint64) (engineFingerprint, uint64, uint64) {
	t.Helper()
	cfg := DefaultConfig()
	if mitigated {
		cfg.NewMitigator = func(sub int) memctrl.Mitigator {
			m, err := tracker.NewPARA(0.01, tracker.ModeDRFMsb, sim.NewRNG(uint64(sub+99)))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	sys, err := New(cfg, traces(t, wl, 4, 6000, seed))
	if err != nil {
		t.Fatal(err)
	}
	loop := sys.Run
	if legacy {
		loop = func() error { return runLegacy(sys) }
	}
	if err := loop(); err != nil {
		t.Fatal(err)
	}
	iters, events := sys.LoopStats()
	return fingerprint(sys), iters, events
}

// TestEngineEquivalenceUnmitigated proves Run is bit-identical to the
// legacy reference loop on an unprotected run.
func TestEngineEquivalenceUnmitigated(t *testing.T) {
	for _, wl := range []string{"mcf", "copy"} {
		legacy, _, levents := runEngine(t, true, false, wl, 11)
		run, _, revents := runEngine(t, false, false, wl, 11)
		if !equalFP(legacy, run) {
			t.Errorf("%s: engines diverged:\nlegacy %+v\nrun    %+v", wl, legacy, run)
		}
		if levents != revents {
			t.Errorf("%s: event counts diverged: legacy %d, run %d", wl, levents, revents)
		}
	}
}

// TestEngineEquivalenceMitigated does the same under an active mitigation
// policy (PARA + DRFMsb), which exercises DRFM stalls, DAR sampling, and the
// wake-event staleness protocol (mitigation ops push wakes around).
func TestEngineEquivalenceMitigated(t *testing.T) {
	for _, wl := range []string{"omnetpp", "bc"} {
		legacy, _, levents := runEngine(t, true, true, wl, 77)
		run, _, revents := runEngine(t, false, true, wl, 77)
		if !equalFP(legacy, run) {
			t.Errorf("%s: engines diverged:\nlegacy %+v\nrun    %+v", wl, legacy, run)
		}
		if levents != revents {
			t.Errorf("%s: event counts diverged: legacy %d, run %d", wl, levents, revents)
		}
	}
}

// TestEngineIterationRegression pins the event-loop efficiency contract
// against the reference: Run processes exactly the legacy event count, and
// its iteration count (ticks visited) stays within the stale-wake bound —
// each Process call leaves at most one wake that can later fire stale, so
// Run's iterations can never exceed legacy iterations plus total events.
// In practice the overhang is a few percent; the bound catches any
// regression that would re-introduce per-event tick visits.
func TestEngineIterationRegression(t *testing.T) {
	legacy, liters, levents := runEngine(t, true, true, "omnetpp", 42)
	run, riters, revents := runEngine(t, false, true, "omnetpp", 42)
	if !equalFP(legacy, run) {
		t.Fatal("engines diverged; iteration comparison meaningless")
	}
	if revents != levents {
		t.Errorf("events: run %d, legacy %d (must be equal)", revents, levents)
	}
	if riters > liters+levents {
		t.Errorf("run iterations %d exceed stale bound %d (legacy %d + events %d)",
			riters, liters+levents, liters, levents)
	}
	if riters == 0 || liters == 0 {
		t.Error("LoopStats reported zero iterations")
	}
	t.Logf("iters: legacy %d, run %d (%.1f%%); events %d",
		liters, riters, 100*float64(riters)/float64(liters), levents)
}
