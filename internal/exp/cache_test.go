package exp

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tracker"
)

// withFreshCache runs fn against an empty cache and restores the previous
// enabled state and contents afterwards, so cache assertions never leak
// between tests sharing the process-wide cache.
func withFreshCache(t *testing.T, fn func()) {
	t.Helper()
	was := SetCacheEnabled(true)
	ResetCache()
	defer func() {
		SetCacheEnabled(was)
		ResetCache()
	}()
	fn()
}

func smallCfg(scheme Scheme) RunConfig {
	return RunConfig{
		Workload:        "mcf",
		Cores:           4,
		AccessesPerCore: 4000,
		TRH:             1000,
		Scheme:          scheme,
		Seed:            0xcafe,
	}
}

// TestCacheTransparency is the determinism acceptance test: for a fixed
// seed, the cached path (first-miss, then hit) and the cache-disabled path
// produce identical RunResults.
func TestCacheTransparency(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, MINTWith(tracker.ModeDRFMsb)} {
		withFreshCache(t, func() {
			cfg := smallCfg(scheme)
			miss, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(miss, hit) {
				t.Errorf("%s: cache hit differs from miss:\nmiss %+v\nhit  %+v", scheme.Name, miss, hit)
			}

			SetCacheEnabled(false)
			uncached, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(miss, uncached) {
				t.Errorf("%s: uncached run differs from cached:\ncached   %+v\nuncached %+v", scheme.Name, miss, uncached)
			}
		})
	}
}

// TestCacheRelabelsIdentity checks a cache hit under a different scheme name
// / T_RH label reports the caller's identity, not the populating run's, and
// never aliases the cached per-core slices.
func TestCacheRelabelsIdentity(t *testing.T) {
	withFreshCache(t, func() {
		cfg := smallCfg(Baseline)
		first, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.TRH = 500 // different threshold, same baseline machine
		second, err := Run(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if second.TRH != 500 {
			t.Errorf("TRH not relabelled: %d", second.TRH)
		}
		if second.SimTimeNS != first.SimTimeNS {
			t.Errorf("hit returned a different simulation: %v vs %v ns", second.SimTimeNS, first.SimTimeNS)
		}
		st := CacheStats()
		if st.RunMisses != 1 || st.RunHits != 1 {
			t.Errorf("stats = %+v, want 1 miss + 1 hit", st)
		}
		if len(first.CoreIPC) > 0 && &first.CoreIPC[0] == &second.CoreIPC[0] {
			t.Error("cache hit aliases the cached CoreIPC slice")
		}
	})
}

// TestGridComputesEachBaselineOnce is the exactly-once acceptance test:
// across a threshold sweep (the Fig10/Fig19 pattern, whose baselines for
// every threshold run concurrently in one wave), every workload's trace is
// generated exactly once and every baseline simulated exactly once; each
// additional threshold is pure hits.
func TestGridComputesEachBaselineOnce(t *testing.T) {
	withFreshCache(t, func() {
		o := Options{Quick: true, Out: io.Discard, Seed: 0xcafe}
		wls := []string{"mcf", "triad"}
		schemes := []Scheme{MINTWith(tracker.ModeDRFMsb)}
		for _, r := range slowdownSweep(o, wls, []int{500, 1000, 2000}, 4, schemes, 4000) {
			if r.err != nil {
				t.Fatal(r.err)
			}
		}
		st := CacheStats()
		if st.TraceMisses != int64(len(wls)) || st.TraceEntries != int64(len(wls)) {
			t.Errorf("trace generations = %d (entries %d), want exactly %d: %+v",
				st.TraceMisses, st.TraceEntries, len(wls), st)
		}
		if st.RunMisses != int64(len(wls)) || st.RunEntries != int64(len(wls)) {
			t.Errorf("baseline simulations = %d (entries %d), want exactly %d: %+v",
				st.RunMisses, st.RunEntries, len(wls), st)
		}
		// 3 thresholds x 2 workloads: one baseline per workload misses, the
		// other two share it (singleflight or memo hit); scheme runs replay
		// traces without touching the run table.
		if st.RunHits != int64(2*len(wls)) {
			t.Errorf("baseline hits = %d, want %d: %+v", st.RunHits, 2*len(wls), st)
		}
		if st.TraceEvictions != 0 {
			t.Errorf("unexpected evictions: %+v", st)
		}
	})
}

// TestConcurrentGridsRaceClean drives several identical grids concurrently
// (run under -race in CI): the singleflight layer must still compute each
// trace and baseline exactly once, and results must agree.
func TestConcurrentGridsRaceClean(t *testing.T) {
	withFreshCache(t, func() {
		o := Options{Quick: true, Out: io.Discard, Seed: 0xcafe}
		wls := []string{"mcf", "xz"}
		schemes := []Scheme{MINTWith(tracker.ModeDRFMsb)}
		const grids = 3
		slows := make([]map[string]map[string]float64, grids)
		errs := make([]error, grids)
		var wg sync.WaitGroup
		for g := 0; g < grids; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				slows[g], _, errs[g] = slowdownGridN(o, wls, 1000, 4, schemes, 4000)
			}(g)
		}
		wg.Wait()
		for g := 0; g < grids; g++ {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if !reflect.DeepEqual(slows[0], slows[g]) {
				t.Errorf("grid %d diverged: %v vs %v", g, slows[g], slows[0])
			}
		}
		st := CacheStats()
		if st.TraceMisses != int64(len(wls)) {
			t.Errorf("trace generations = %d, want %d: %+v", st.TraceMisses, len(wls), st)
		}
		if st.RunMisses != int64(len(wls)) {
			t.Errorf("baseline simulations = %d, want %d: %+v", st.RunMisses, len(wls), st)
		}
	})
}

// TestMixTracesCached checks the Fig23 path: mix-mode runs share recorded
// traces across thresholds and memoize their baselines.
func TestMixTracesCached(t *testing.T) {
	withFreshCache(t, func() {
		for _, trh := range []int{500, 1000} {
			cfg := RunConfig{
				Cores:           4,
				AccessesPerCore: 4000,
				TRH:             trh,
				Scheme:          Baseline,
				Seed:            0xcafe,
				MixSeed:         3,
				Workload:        "mix3",
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		st := CacheStats()
		if st.TraceMisses != 1 || st.RunMisses != 1 || st.RunHits != 1 {
			t.Errorf("stats = %+v, want 1 trace gen + 1 baseline + 1 hit", st)
		}
	})
}

// TestRegistryExperimentsShareWork runs two real registry experiments that
// use the same workloads (the `-run all` pattern) and asserts the process
// performed each trace generation and each baseline simulation exactly
// once across both: misses == entries means no key was ever recomputed,
// and the expected counts pin the sharing down exactly.
func TestRegistryExperimentsShareWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick experiments")
	}
	withFreshCache(t, func() {
		o := Options{Quick: true, Out: io.Discard, Seed: 0xcafe, Workloads: []string{"mcf"}}
		for _, id := range []string{"fig5", "fig9"} {
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(o); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		st := CacheStats()
		// Both figures run 8-core mcf at the same trace length and seed:
		// one trace generation and one baseline simulation serve them both.
		if st.TraceMisses != 1 || st.TraceEntries != 1 {
			t.Errorf("trace generations = %d (entries %d), want exactly 1: %+v",
				st.TraceMisses, st.TraceEntries, st)
		}
		if st.RunMisses != 1 || st.RunEntries != 1 {
			t.Errorf("baseline simulations = %d (entries %d), want exactly 1: %+v",
				st.RunMisses, st.RunEntries, st)
		}
		if st.RunHits < 1 || st.TraceHits < 1 {
			t.Errorf("no cross-experiment reuse recorded: %+v", st)
		}
	})
}
