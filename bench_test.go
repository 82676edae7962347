package dream

// One benchmark per paper table and figure (DESIGN.md §3): each bench
// regenerates its artifact in Quick mode on a reduced workload set, so
// `go test -bench=.` exercises the entire harness end to end. The full
// figures come from `go run ./cmd/experiments -run <id>`.
//
// Micro-benchmarks for the simulator's hot paths (tracker decisions, DCT
// indexing, DRAM commands) follow at the bottom.

import (
	"io"
	"testing"

	dreamcore "repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// benchOpts builds reduced-size options: Quick trace lengths and a small
// representative workload set (one streaming, one irregular, one
// grouping-pathological).
func benchOpts(wls ...string) exp.Options {
	if len(wls) == 0 {
		wls = []string{"mcf", "parest", "triad"}
	}
	return exp.Options{Quick: true, Out: io.Discard, Workloads: wls, Seed: 0xbe7c4}
}

func runExp(b *testing.B, f func(exp.Options) error, o exp.Options) {
	b.Helper()
	// Drop the process-wide run cache so every benchmark measures the cold
	// cost of its own figure, not residue from benchmarks that ran earlier
	// in the same process. Within-iteration reuse (e.g. one baseline shared
	// across a figure's T_RH sweep) is part of what the number reports;
	// compare runs with -benchtime=1x, the cold iteration.
	exp.ResetCache()
	for i := 0; i < b.N; i++ {
		if err := f(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B)   { runExp(b, exp.Fig5, benchOpts()) }
func BenchmarkTable1(b *testing.B) { runExp(b, exp.Table1, benchOpts()) }
func BenchmarkTable3(b *testing.B) { runExp(b, exp.Table3, benchOpts()) }
func BenchmarkTable4(b *testing.B) { runExp(b, exp.Table4, benchOpts()) }
func BenchmarkTable5(b *testing.B) { runExp(b, exp.Table5, benchOpts()) }
func BenchmarkFig9(b *testing.B)   { runExp(b, exp.Fig9, benchOpts()) }
func BenchmarkFig10(b *testing.B)  { runExp(b, exp.Fig10, benchOpts("mcf", "triad")) }
func BenchmarkFig11(b *testing.B)  { runExp(b, exp.Fig11, benchOpts()) }
func BenchmarkFig15Top(b *testing.B) {
	runExp(b, exp.Fig15Top, benchOpts("lbm", "parest", "triad"))
}
func BenchmarkFig15Bot(b *testing.B) {
	runExp(b, exp.Fig15Bot, benchOpts("lbm", "triad"))
}
func BenchmarkTable6(b *testing.B) { runExp(b, exp.Table6, benchOpts()) }
func BenchmarkTable7(b *testing.B) { runExp(b, exp.Table7, benchOpts()) }
func BenchmarkFig17(b *testing.B)  { runExp(b, exp.Fig17, benchOpts("mcf", "triad")) }
func BenchmarkFig19(b *testing.B)  { runExp(b, exp.Fig19, benchOpts("mcf", "triad")) }
func BenchmarkFig22(b *testing.B)  { runExp(b, exp.Fig22, benchOpts("mcf", "triad")) }
func BenchmarkFig23(b *testing.B)  { runExp(b, exp.Fig23, benchOpts()) }
func BenchmarkDoS(b *testing.B)    { runExp(b, exp.DoS, benchOpts("mcf")) }
func BenchmarkSecurity(b *testing.B) {
	runExp(b, exp.Security, benchOpts("mcf"))
}
func BenchmarkAblationDelay(b *testing.B) {
	runExp(b, exp.AblationDelay, benchOpts("mcf", "triad"))
}
func BenchmarkAblationATM(b *testing.B) {
	runExp(b, exp.AblationATM, benchOpts("mcf", "triad"))
}
func BenchmarkAblationGrouping(b *testing.B) {
	runExp(b, exp.AblationGrouping, benchOpts("lbm", "triad"))
}
func BenchmarkAblationPagePolicy(b *testing.B) {
	runExp(b, exp.AblationPagePolicy, benchOpts("mcf", "triad"))
}

// --- micro-benchmarks: simulator hot paths --------------------------------

func BenchmarkTrackerPARA(b *testing.B) {
	t, err := tracker.NewPARA(1.0/100, tracker.ModeDRFMsb, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = t.OnActivate(sim.Tick(i), i&31, uint32(i&0x1ffff))
	}
}

func BenchmarkTrackerMINT(b *testing.B) {
	t, err := tracker.NewMINT(100, 32, tracker.ModeDRFMsb, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = t.OnActivate(sim.Tick(i), i&31, uint32(i&0x1ffff))
	}
}

func BenchmarkTrackerGraphene(b *testing.B) {
	t, err := tracker.NewGraphene(tracker.GrapheneConfig{TRH: 1000, Banks: 32, Mode: tracker.ModeNRR})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	for i := 0; i < b.N; i++ {
		_ = t.OnActivate(sim.Tick(i), i&31, rng.Uint32()&0x1ffff)
	}
}

func BenchmarkDreamRMINT(b *testing.B) {
	t, err := dreamcore.NewDreamRMINT(dreamcore.DreamRMINTConfig{
		TRH: 2000, Banks: 32, UseATM: true,
	}, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = t.OnActivate(sim.Tick(i), i&31, uint32(i&0x1ffff))
	}
}

func BenchmarkDreamCIndex(b *testing.B) {
	t, err := dreamcore.NewDreamC(dreamcore.DreamCConfig{
		TRH: 500, Banks: 32, RowsPerBank: 128 * 1024,
		Grouping: dreamcore.GroupRandomized,
	}, sim.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	var acc int
	for i := 0; i < b.N; i++ {
		acc += t.Index(i&31, uint32(i&0x1ffff))
	}
	_ = acc
}

func BenchmarkDRAMActivatePrecharge(b *testing.B) {
	dev, err := dram.NewSubChannel(dram.DefaultTimings(), 32)
	if err != nil {
		b.Fatal(err)
	}
	now := sim.Tick(0)
	for i := 0; i < b.N; i++ {
		bank := i & 31
		t := dev.EarliestActivate(bank)
		if t < now {
			t = now
		}
		if err := dev.Activate(t, bank, uint32(i)); err != nil {
			b.Fatal(err)
		}
		if err := dev.Precharge(dev.EarliestPrecharge(bank), bank, false); err != nil {
			b.Fatal(err)
		}
		now = t
	}
}

func BenchmarkAuditor(b *testing.B) {
	a := memctrl.NewAuditor(128*1024, 8192)
	for i := 0; i < b.N; i++ {
		a.OnActivate(i&31, uint32(i&0x3fff))
		if i%64 == 63 {
			a.OnMitigate(i&31, uint32(i&0x3fff))
		}
	}
}

func BenchmarkRMAQImpact(b *testing.B) {
	var acc int
	for i := 0; i < b.N; i++ {
		acc += security.RMAQImpact(25 + i%80)
	}
	_ = acc
}

func BenchmarkAblationDRFMKind(b *testing.B) {
	runExp(b, exp.AblationDRFMKind, benchOpts("mcf", "triad"))
}
