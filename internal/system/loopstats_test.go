package system

import (
	"fmt"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// TestLoopStatsGolden pins the event loop's exact work on audited 8-core
// runs: iterations (ticks visited) and events (completions delivered plus
// controller Process calls). The registry digests pin what a run computes;
// these numbers pin how much looping it takes to get there, so a change
// that wakes controllers more often than the fast-forward bound allows, or
// visits ticks nothing happens at, fails here even when every result stays
// bit-identical.
func TestLoopStatsGolden(t *testing.T) {
	mint := func(sub int) memctrl.Mitigator {
		m, err := tracker.NewMINT(20, 32, tracker.ModeDRFMsb, sim.NewRNG(uint64(sub+99)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		wl            string
		seed          uint64
		mit           func(int) memctrl.Mitigator
		iters, events uint64
	}{
		{"mcf", 11, nil, 99908, 115293},
		{"copy", 11, nil, 84830, 95402},
		{"triad", 3, nil, 96169, 106914},
		{"omnetpp", 77, mint, 94197, 110855},
		{"bc", 77, mint, 97101, 110488},
		{"lbm", 5, mint, 89622, 101511},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/seed%d/mitigated=%v", tc.wl, tc.seed, tc.mit != nil)
		cfg := DefaultConfig()
		cfg.CtrlCfg.EnableAudit = true
		cfg.NewMitigator = tc.mit
		sys := run(t, cfg, traces(t, tc.wl, 8, 8000, tc.seed))
		iters, events := sys.LoopStats()
		if iters != tc.iters || events != tc.events {
			t.Errorf("%s: iterations/events %d/%d, want %d/%d", name, iters, events, tc.iters, tc.events)
		}
	}
}
