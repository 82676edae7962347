package system

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/tracker"
)

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

// runEngine executes one run under the given engine and reports its
// fingerprint plus loop statistics.
func runEngine(t *testing.T, engine EngineKind, mitigated bool, wl string, seed uint64) (engineFingerprint, uint64, uint64) {
	t.Helper()
	return runEngineCfg(t, engine, mitigated, wl, seed, nil)
}

// runEngineCfg is runEngine with a config hook applied before New, for the
// fast-forward equivalence variant.
func runEngineCfg(t *testing.T, engine EngineKind, mitigated bool, wl string, seed uint64, mutate func(*Config)) (engineFingerprint, uint64, uint64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Engine = engine
	if mitigated {
		cfg.NewMitigator = func(sub int) memctrl.Mitigator {
			m, err := tracker.NewPARA(0.01, tracker.ModeDRFMsb, sim.NewRNG(uint64(sub+99)))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys := run(t, cfg, traces(t, wl, 4, 6000, seed))
	iters, events := sys.LoopStats()
	return fingerprint(sys), iters, events
}

// TestEngineEquivalenceUnmitigated proves the wheel engine is bit-identical
// to the legacy engine on an unprotected run.
func TestEngineEquivalenceUnmitigated(t *testing.T) {
	for _, wl := range []string{"mcf", "copy"} {
		legacy, _, levents := runEngine(t, EngineLegacy, false, wl, 11)
		wheel, _, wevents := runEngine(t, EngineWheel, false, wl, 11)
		if !equalFP(legacy, wheel) {
			t.Errorf("%s: engines diverged:\nlegacy %+v\nwheel  %+v", wl, legacy, wheel)
		}
		if levents != wevents {
			t.Errorf("%s: event counts diverged: legacy %d, wheel %d", wl, levents, wevents)
		}
	}
}

// TestEngineEquivalenceMitigated does the same under an active mitigation
// policy (PARA + DRFMsb), which exercises DRFM stalls, DAR sampling, and the
// wake-event staleness protocol (mitigation ops push wakes around).
func TestEngineEquivalenceMitigated(t *testing.T) {
	for _, wl := range []string{"omnetpp", "bc"} {
		legacy, _, levents := runEngine(t, EngineLegacy, true, wl, 77)
		wheel, _, wevents := runEngine(t, EngineWheel, true, wl, 77)
		if !equalFP(legacy, wheel) {
			t.Errorf("%s: engines diverged:\nlegacy %+v\nwheel  %+v", wl, legacy, wheel)
		}
		if levents != wevents {
			t.Errorf("%s: event counts diverged: legacy %d, wheel %d", wl, levents, wevents)
		}
	}
}

// TestEngineIterationRegression pins the event-loop efficiency contract: the
// wheel engine processes exactly the legacy event count, and its iteration
// count (ticks visited) stays within the stale-wake bound — each Process
// call queues at most one wake event that can later fire stale, so wheel
// iterations can never exceed legacy iterations plus total events. In
// practice the overhang is a few percent; the bound catches any regression
// that would re-introduce per-event tick visits.
func TestEngineIterationRegression(t *testing.T) {
	legacy, liters, levents := runEngine(t, EngineLegacy, true, "omnetpp", 42)
	wheel, witers, wevents := runEngine(t, EngineWheel, true, "omnetpp", 42)
	if !equalFP(legacy, wheel) {
		t.Fatal("engines diverged; iteration comparison meaningless")
	}
	if wevents != levents {
		t.Errorf("events: wheel %d, legacy %d (must be equal)", wevents, levents)
	}
	if witers > liters+levents {
		t.Errorf("wheel iterations %d exceed stale bound %d (legacy %d + events %d)",
			witers, liters+levents, liters, levents)
	}
	if witers == 0 || liters == 0 {
		t.Error("LoopStats reported zero iterations")
	}
	t.Logf("iters: legacy %d, wheel %d (%.1f%%); events %d",
		liters, witers, 100*float64(witers)/float64(liters), levents)
}

// TestFastForwardEquivalence proves the quiescence fast-forward is
// schedule-neutral: with the write-drain certainty condition excluding reads
// from the wake bound, the clock jumps further between iterations, but every
// REF boundary, drain decision, and command issue lands on the identical
// tick. DisableFastForward keeps the conservative bound; both runs must
// produce bit-identical simulations, differing at most in wake-call counts.
func TestFastForwardEquivalence(t *testing.T) {
	ff := func(on bool) func(*Config) {
		return func(cfg *Config) { cfg.CtrlCfg.DisableFastForward = !on }
	}
	for _, engine := range []EngineKind{EngineLegacy, EngineWheel} {
		for _, wl := range []string{"copy", "omnetpp"} {
			off, offIters, _ := runEngineCfg(t, engine, true, wl, 123, ff(false))
			on, onIters, _ := runEngineCfg(t, engine, true, wl, 123, ff(true))
			if !equalFP(off, on) {
				t.Errorf("engine %v %s: fast-forward changed the simulation:\noff %+v\non  %+v",
					engine, wl, off, on)
			}
			if onIters > offIters {
				t.Errorf("engine %v %s: fast-forward raised iterations %d -> %d",
					engine, wl, offIters, onIters)
			}
		}
	}
}
