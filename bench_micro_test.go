package dream

// Per-subsystem microbenchmarks guarding the mitigated-run hot path: each
// one isolates a structure the profiler shows on a mitigated figure's
// flame graph (LLC lookups, tracker observe paths, the security auditor)
// plus BenchmarkMitigatedRun, a single mitigated simulation over cached
// traces — the perf canary below the figure level. Run them cold with
// `go test -run '^$' -bench <name> -benchtime=1x .`; the end-to-end
// performance record is the bench module (BENCHMARK.json), and the older
// BENCH_<n>.json files are frozen history.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// benchAddrs pre-generates a deterministic address stream so the timed loop
// measures the subsystem, not the RNG.
func benchAddrs(n int, seed uint64, mask uint32) []uint32 {
	rng := sim.NewRNG(seed)
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() & mask
	}
	return out
}

func BenchmarkLLCAccess(b *testing.B) {
	c, err := cache.New(cache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	addrs := benchAddrs(1<<16, 0x11cc, 0xfffff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Access(uint64(addrs[i&(1<<16-1)]), i&7 == 0)
	}
}

func BenchmarkGrapheneObserve(b *testing.B) {
	t, err := tracker.NewGraphene(tracker.GrapheneConfig{
		TRH: 1000, Banks: 32, Mode: tracker.ModeDRFMsb, ResetPeriod: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	rows := benchAddrs(1<<16, 0x6a9e, 0x1ffff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.OnActivate(sim.Tick(i), i&31, rows[i&(1<<16-1)])
		if i&0xffff == 0xffff {
			t.OnRefresh(sim.Tick(i), 8192) // full window reset
		}
	}
}

func BenchmarkMOATObserve(b *testing.B) {
	t, err := tracker.NewMOAT(tracker.MOATConfig{TRH: 1000, ResetPeriod: 8192})
	if err != nil {
		b.Fatal(err)
	}
	rows := benchAddrs(1<<16, 0x30a7, 0x1ffff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.OnActivate(sim.Tick(i), i&31, rows[i&(1<<16-1)])
		if i&0xffff == 0xffff {
			t.OnRefresh(sim.Tick(i), 8192) // full window reset
		}
	}
}

func BenchmarkAuditorObserve(b *testing.B) {
	a := memctrl.NewAuditor(128*1024, 8192)
	rows := benchAddrs(1<<16, 0xa0d1, 0x3fff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnActivate(i&31, rows[i&(1<<16-1)])
		switch {
		case i&63 == 63:
			a.OnMitigate(i&31, rows[i&(1<<16-1)])
		case i&8191 == 8191:
			a.OnRefresh(uint64(i >> 13)) // periodic sweep
		}
	}
}

// benchMitigated measures one full mitigated simulation per iteration. Built
// schemes are memoized by the run cache, so each iteration first resets the
// cache and re-warms the traces outside the timer: every sample is exactly
// one scheme simulation over recorded traces, never a replayed cache hit
// (an iteration that simulated no events fails the benchmark).
func benchMitigated(b *testing.B, cfg exp.RunConfig) {
	b.Helper()
	warm := cfg
	warm.Scheme = exp.Baseline
	warm.MaxTime = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exp.ResetCache()
		// The warm-up records the whole trace set before simulating, then
		// stops at once: its MaxTime error is expected. A trace generation
		// failure would fail the measured run below.
		_, _ = exp.Run(warm)
		events := exp.SimEvents()
		b.StartTimer()
		if _, err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
		if exp.SimEvents() == events {
			b.Fatalf("iteration %d simulated no events: the run was served from the cache", i)
		}
	}
}

// benchSystemRun measures the raw event loop: one full system simulation per
// iteration over pre-recorded traces (recorded outside the timer, replayed
// each iteration), with a PARA mitigator so controller wakes and DRFM stalls
// exercise the event queue. No exp-harness or cache layers in the loop.
func benchSystemRun(b *testing.B, engine system.EngineKind) {
	b.Helper()
	gens, err := workload.Rate("mcf", 8, 20_000, 0xbe7c)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]runcache.Source, len(gens))
	for i, g := range gens {
		srcs[i] = g
	}
	ts := runcache.RecordAll(srcs)

	cfg := system.DefaultConfig()
	cfg.Engine = engine
	cfg.NewMitigator = func(sub int) memctrl.Mitigator {
		m, err := tracker.NewPARA(0.01, tracker.ModeDRFMsb, sim.NewRNG(uint64(sub+99)))
		if err != nil {
			panic(err)
		}
		return m
	}
	var iters, events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := make([]cpu.Trace, len(ts))
		for j := range ts {
			tr[j] = runcache.NewReplayer(ts[j])
		}
		sys, err := system.New(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		iters, events = sys.LoopStats()
	}
	// Loop-shape metrics: both engines must drain the same event count, and
	// iters/op is the tick-visit budget the wheel and fast-forward defend.
	b.ReportMetric(float64(iters), "iters/op")
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkSystemRun compares the timing-wheel engine against the retained
// legacy scan-everything loop on an identical mitigated simulation. The
// wheel sub-benchmark is the tracked number; legacy is the reference that
// quantifies what the wheel buys.
func BenchmarkSystemRun(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchSystemRun(b, system.EngineWheel) })
	b.Run("legacy", func(b *testing.B) { benchSystemRun(b, system.EngineLegacy) })
}

// BenchmarkMitigatedRun is the tracked mitigated-run canary (the workload
// that dominates full-figure wall-clock now that baselines are memoized):
// one Fig19-style Graphene point, the same point with the security auditor
// attached, and one PRAC/MOAT point.
func BenchmarkMitigatedRun(b *testing.B) {
	base := exp.RunConfig{
		Workload: "mcf",
		TRH:      1000,
		Seed:     0xbe7c4,
	}
	b.Run("graphene", func(b *testing.B) {
		cfg := base
		cfg.Scheme = exp.GrapheneWith(tracker.ModeDRFMsb)
		benchMitigated(b, cfg)
	})
	b.Run("graphene-audit", func(b *testing.B) {
		cfg := base
		cfg.Scheme = exp.GrapheneWith(tracker.ModeDRFMsb)
		cfg.Audit = true
		benchMitigated(b, cfg)
	})
	b.Run("moat", func(b *testing.B) {
		cfg := base
		cfg.Scheme = exp.MOAT()
		benchMitigated(b, cfg)
	})
}

// BenchmarkMitigatedRunMetricsOff/On bound the observability layer's cost on
// the same Fig19-style point as BenchmarkMitigatedRun: Off is the nil-sink
// fast path (must stay within noise of the pre-obs hot loop, allocs/op
// unchanged); On attaches a full recorder with the epoch sampler but no file
// exporters, pricing the per-event accounting itself.
func BenchmarkMitigatedRunMetricsOff(b *testing.B) {
	cfg := exp.RunConfig{
		Workload: "mcf",
		TRH:      1000,
		Seed:     0xbe7c4,
		Scheme:   exp.GrapheneWith(tracker.ModeDRFMsb),
	}
	benchMitigated(b, cfg)
}

func BenchmarkMitigatedRunMetricsOn(b *testing.B) {
	cfg := exp.RunConfig{
		Workload: "mcf",
		TRH:      1000,
		Seed:     0xbe7c4,
		Scheme:   exp.GrapheneWith(tracker.ModeDRFMsb),
		Metrics:  &obs.Options{},
	}
	benchMitigated(b, cfg)
}
