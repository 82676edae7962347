package system

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cpu"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/workload"
)

func traces(t *testing.T, wl string, cores int, accesses uint64, seed uint64) []cpu.Trace {
	t.Helper()
	tr, err := workload.Rate(wl, cores, accesses, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func run(t *testing.T, cfg Config, tr []cpu.Trace) *System {
	t.Helper()
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// driveCompletionHeap drives the completion heap the way Run does — pushes
// after the current tick, then every completion of the earliest tick popped —
// for ops rounds of up to four pushes, then drains it, checking each tick's
// pops against a sorted-slice reference. The pushes form dense same-tick
// groups and pairs with equal (at, core) that differ only in token, so a heap
// ordered by less than (at, core, token) fails.
func driveCompletionHeap(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var h completionHeap
	var ref []completion
	now := Tick(0)
	for op := 0; op < ops || len(ref) > 0; op++ {
		for n := rng.Intn(5); op < ops && n > 0; n-- {
			c := completion{core: rng.Intn(8), token: uint64(rng.Intn(64))}
			switch rng.Intn(5) {
			case 0, 1: // spread over the next thousand ticks
				c.at = now + 1 + Tick(rng.Int63n(1000))
			case 2, 3: // dense: a few ticks shared by many completions
				c.at = now + 1 + Tick(rng.Intn(3))
			default: // a queued completion's tick and core, another token
				if len(ref) == 0 {
					continue
				}
				d := ref[rng.Intn(len(ref))]
				c.at, c.core, c.token = d.at, d.core, d.token+1+uint64(rng.Intn(3))
			}
			h.push(c)
			ref = append(ref, c)
		}
		if len(ref) == 0 {
			continue
		}
		sort.Slice(ref, func(i, j int) bool {
			a, b := ref[i], ref[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.core != b.core {
				return a.core < b.core
			}
			return a.token < b.token
		})
		now = ref[0].at
		if len(h) != len(ref) {
			t.Fatalf("seed %d op %d: heap holds %d, reference %d", seed, op, len(h), len(ref))
		}
		if h[0].at != now {
			t.Fatalf("seed %d op %d: heap top at %d, reference's next at %d", seed, op, h[0].at, now)
		}
		i := 0
		for ; len(h) > 0 && h[0].at == now; i++ {
			if got := h.pop(); got != ref[i] {
				t.Fatalf("seed %d op %d tick %d pop %d: %+v, want %+v", seed, op, now, i, got, ref[i])
			}
		}
		if i < len(ref) && ref[i].at == now {
			t.Fatalf("seed %d op %d tick %d: popped %d, reference has more due", seed, op, now, i)
		}
		ref = ref[i:]
	}
}

// TestCompletionHeapOrder runs the reference comparison over 20 seeds.
func TestCompletionHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		driveCompletionHeap(t, seed, 300)
	}
}

// TestCompletionHeapSameTickOrder pushes one tick's completions in reverse
// (core, token) order, three of them on one core, behind a completion of a
// later tick, and checks that the tick pops in (core, token) order and leaves
// the later completion queued.
func TestCompletionHeapSameTickOrder(t *testing.T) {
	want := []completion{
		{at: 100, core: 0, token: 9},
		{at: 100, core: 1, token: 8},
		{at: 100, core: 5, token: 3},
		{at: 100, core: 5, token: 7},
		{at: 100, core: 5, token: 8},
		{at: 100, core: 7, token: 0},
	}
	later := completion{at: 101, core: 0, token: 0}
	var h completionHeap
	h.push(later)
	for i := len(want) - 1; i >= 0; i-- {
		h.push(want[i])
	}
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d: %+v, want %+v", i, got, w)
		}
	}
	if len(h) != 1 || h[0] != later {
		t.Fatalf("after tick 100 the heap holds %+v, want only %+v", h, later)
	}
}

// FuzzCompletionHeap lets go's fuzzer mutate the seed for the reference
// comparison.
func FuzzCompletionHeap(f *testing.F) {
	for _, s := range []int64{1, 42, 0xdead} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		driveCompletionHeap(t, seed, 120)
	})
}

func TestEndToEndBaseline(t *testing.T) {
	sys := run(t, DefaultConfig(), traces(t, "mcf", 4, 5000, 1))
	if sys.FinishTime() == 0 {
		t.Fatal("no finish time")
	}
	var retired int64
	for _, c := range sys.Cores() {
		done, _ := c.Finished()
		if !done {
			t.Fatal("core unfinished")
		}
		retired += c.Retired
		if ipc := c.IPC(); ipc <= 0 || ipc > 4 {
			t.Errorf("IPC = %v out of range", ipc)
		}
	}
	if retired == 0 {
		t.Fatal("nothing retired")
	}
	var acts uint64
	for _, ctrl := range sys.Controllers() {
		acts += ctrl.Activations
	}
	if acts == 0 {
		t.Fatal("no DRAM activity")
	}
	if sys.LLC().Misses == 0 {
		t.Fatal("no LLC misses")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (sim.Tick, uint64) {
		cfg := DefaultConfig()
		cfg.NewMitigator = func(sub int) memctrl.Mitigator {
			m, err := tracker.NewPARA(0.01, tracker.ModeDRFMsb, sim.NewRNG(uint64(sub+99)))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		sys := run(t, cfg, traces(t, "omnetpp", 4, 5000, 77))
		var drfms uint64
		for _, c := range sys.Controllers() {
			drfms += c.Device().DRFMsbs
		}
		return sys.FinishTime(), drfms
	}
	t1, d1 := mk()
	t2, d2 := mk()
	if t1 != t2 || d1 != d2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", t1, d1, t2, d2)
	}
}

// TestMitigationSlowdownOrdering is the integration-level sanity check of
// the paper's motivation: NRR <= DRFMsb <= DRFMab slowdown for PARA.
func TestMitigationSlowdownOrdering(t *testing.T) {
	ipcFor := func(mode *tracker.Mode) float64 {
		cfg := DefaultConfig()
		if mode != nil {
			cfg.NewMitigator = func(sub int) memctrl.Mitigator {
				m, err := tracker.NewPARA(0.01, *mode, sim.NewRNG(uint64(sub+1)))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
		}
		sys := run(t, cfg, traces(t, "bc", 8, 20000, 5))
		var ipc float64
		for _, c := range sys.Cores() {
			ipc += c.IPC()
		}
		return ipc
	}
	base := ipcFor(nil)
	nrr, sb, ab := tracker.ModeNRR, tracker.ModeDRFMsb, tracker.ModeDRFMab
	ipcNRR, ipcSB, ipcAB := ipcFor(&nrr), ipcFor(&sb), ipcFor(&ab)
	if !(base >= ipcNRR*0.999) {
		t.Errorf("baseline (%v) should beat NRR (%v)", base, ipcNRR)
	}
	if !(ipcNRR > ipcSB) {
		t.Errorf("NRR (%v) should beat DRFMsb (%v)", ipcNRR, ipcSB)
	}
	if !(ipcSB > ipcAB) {
		t.Errorf("DRFMsb (%v) should beat DRFMab (%v)", ipcSB, ipcAB)
	}
}

func TestRefreshHappens(t *testing.T) {
	sys := run(t, DefaultConfig(), traces(t, "blender", 2, 20000, 3))
	ti := sys.Controllers()[0].Device().Timings
	expect := uint64(sys.FinishTime() / ti.TREFI)
	got := sys.Controllers()[0].Device().Refreshes
	if got+1 < expect {
		t.Errorf("refreshes = %d, expected ~%d over %v", got, expect, sys.FinishTime())
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	sys := run(t, DefaultConfig(), traces(t, "copy", 4, 30000, 9))
	var writes uint64
	for _, c := range sys.Controllers() {
		writes += c.Device().Writes
	}
	if writes == 0 {
		t.Error("store-heavy workload produced no DRAM writes")
	}
}

func TestNoTracesFails(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("no traces should fail")
	}
}

func TestMaxTimeAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTime = 100 // absurdly small
	sys, err := New(cfg, traces(t, "mcf", 1, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err == nil {
		t.Error("expected MaxTime error")
	}
}

func TestOnProgressReportsAndAborts(t *testing.T) {
	// The hook sees monotonically non-decreasing progress on a normal run.
	cfg := DefaultConfig()
	var calls int
	var lastNow Tick
	var lastEvents uint64
	cfg.OnProgress = func(now Tick, events uint64) error {
		calls++
		if now < lastNow || events < lastEvents {
			t.Errorf("progress went backwards: (%v,%d) after (%v,%d)", now, events, lastNow, lastEvents)
		}
		lastNow, lastEvents = now, events
		return nil
	}
	run(t, cfg, traces(t, "mcf", 4, 5000, 1))
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if lastEvents == 0 {
		t.Error("no events drained reported")
	}

	// A non-nil return aborts the run with exactly that error.
	abort := &testProgressErr{}
	cfg = DefaultConfig()
	cfg.OnProgress = func(now Tick, events uint64) error { return abort }
	sys, err := New(cfg, traces(t, "mcf", 4, 5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != abort {
		t.Fatalf("Run err = %v, want the hook's error", err)
	}
}

type testProgressErr struct{}

func (*testProgressErr) Error() string { return "abort from progress hook" }

// TestOnProgressTransparent proves the hook is pure observation: a run with
// a no-op hook is bit-identical to a run without one.
func TestOnProgressTransparent(t *testing.T) {
	plain := run(t, DefaultConfig(), traces(t, "mcf", 2, 4000, 7))
	cfg := DefaultConfig()
	cfg.OnProgress = func(Tick, uint64) error { return nil }
	hooked := run(t, cfg, traces(t, "mcf", 2, 4000, 7))
	if plain.FinishTime() != hooked.FinishTime() {
		t.Errorf("finish time diverged: %v vs %v", plain.FinishTime(), hooked.FinishTime())
	}
	for i := range plain.Cores() {
		if plain.Cores()[i].Retired != hooked.Cores()[i].Retired {
			t.Errorf("core %d retired diverged", i)
		}
	}
}
