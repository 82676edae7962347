package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	dreamcore "repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/tracker"
)

// stubExecutor records every ExecCells wave and answers each cell with a
// synthetic result, so a figure's plan can be inspected without simulating.
type stubExecutor struct {
	waves [][]CampaignCell
}

// stubSimTimeNS is the synthetic baseline simulated time of a workload; it
// differs between workloads so each gets its own WindowScale.
func stubSimTimeNS(wl string) float64 { return 1e6 * float64(len(wl)) }

func (s *stubExecutor) ExecCells(_ context.Context, cells []CampaignCell) []CellResult {
	s.waves = append(s.waves, cells)
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		ipc := 0.9
		if c.Scheme == Baseline.Name {
			ipc = 1
		}
		r := stats.RunResult{Scheme: c.Scheme, Workload: c.Workload, TRH: c.TRH,
			SimTimeNS: stubSimTimeNS(c.Workload)}
		for j := 0; j < c.Cores; j++ {
			r.CoreIPC = append(r.CoreIPC, ipc)
		}
		out[i].Res = r
	}
	return out
}

func cellKeys(cells []CampaignCell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	return keys
}

func sameKeys(t *testing.T, what string, got, want []CampaignCell) {
	t.Helper()
	g, w := cellKeys(got), cellKeys(want)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s: planned %d cells, want %d\n got %q\nwant %q", what, len(g), len(w), g, w)
	}
}

// TestSweepFiguresPlanTwoWaves pins the shape of every threshold-sweep
// figure's campaign: all thresholds' baselines in one ExecCells wave, all
// thresholds' scheme cells in a second (Fig23, whose cells need no measured
// baseline, in one). The cells are exactly those one grid per threshold
// plans — the same keys, WindowScale bits included, threshold-major — so run
// and disk cache entries and the rendered figures are unchanged.
func TestSweepFiguresPlanTwoWaves(t *testing.T) {
	o := Options{Quick: true, Workloads: []string{"mcf", "bwaves"}, Out: io.Discard}
	wls := o.workloads()
	dreamc := DreamC(dreamcore.GroupRandomized, 1, false)
	sweeps := []struct {
		id       string
		run      func(Options) error
		trhs     []int
		cores    int
		schemes  []Scheme
		accesses uint64
	}{
		{"fig10", Fig10, []int{500, 1000, 2000, 4000}, 8, []Scheme{
			PARAWith(tracker.ModeDRFMsb), DreamRPARA(true),
			MINTWith(tracker.ModeDRFMsb), DreamRMINT(true, false)}, o.accesses()},
		{"fig15bot", Fig15Bot, []int{250, 500, 1000}, 8, []Scheme{dreamc}, o.counterAccesses()},
		{"fig19", Fig19, []int{500, 1000, 2000, 4000}, 8, []Scheme{
			MOAT(), DreamRMINT(true, false), dreamc}, o.counterAccesses()},
		{"fig22", Fig22, []int{250, 500, 1000}, 16, []Scheme{
			dreamc, DreamC(dreamcore.GroupRandomized, 2, false)}, o.counterAccesses()},
		{"postdream", PostDream, []int{1000}, 8, []Scheme{
			DreamRMINT(true, false), dreamc, DAPPERScheme(), QPRACScheme(),
			ProbScheme(tracker.ProbHybrid)}, o.counterAccesses()},
	}
	wsBits := func(wl string) uint64 { return math.Float64bits(scaleFromBase(stubSimTimeNS(wl))) }
	for _, sw := range sweeps {
		t.Run(sw.id, func(t *testing.T) {
			stub := &stubExecutor{}
			so := o
			so.Executor = stub
			if err := sw.run(so); err != nil {
				t.Fatal(err)
			}
			if len(stub.waves) != 2 {
				t.Fatalf("%d ExecCells waves, want 2", len(stub.waves))
			}
			var base, schemes []CampaignCell
			for _, trh := range sw.trhs {
				base = append(base, PlanGridBase(wls, trh, sw.cores, sw.accesses, o.seed())...)
				schemes = append(schemes, PlanGridSchemes(wls, schemeNames(sw.schemes), trh, sw.cores,
					sw.accesses, o.seed(), wsBits)...)
			}
			sameKeys(t, "baseline wave", stub.waves[0], base)
			sameKeys(t, "scheme wave", stub.waves[1], schemes)
		})
	}

	t.Run("fig23", func(t *testing.T) {
		stub := &stubExecutor{}
		so := o
		so.Executor = stub
		if err := Fig23(so); err != nil {
			t.Fatal(err)
		}
		if len(stub.waves) != 1 {
			t.Fatalf("%d ExecCells waves, want 1", len(stub.waves))
		}
		var want []CampaignCell
		for _, trh := range []int{500, 1000, 2000} {
			for m := 0; m < 3; m++ {
				for _, sc := range []string{"base", "moat", "mint-dreamr", "dreamc-randomized"} {
					want = append(want, CampaignCell{
						Workload: fmt.Sprintf("mix%d", m), MixSeed: uint64(m) + 1, Scheme: sc,
						TRH: trh, Cores: 8, Accesses: o.accesses(), Seed: o.seed(),
						WindowScaleBits: math.Float64bits(o.windowScale()),
					})
				}
			}
		}
		sameKeys(t, "mix wave", stub.waves[0], want)
	})
}

// TestSweepSurvivesInjectedPanic poisons one simulation of a fused
// two-threshold sweep and checks the degradation contract across the whole
// sweep: the process survives, every threshold still renders and failed
// cells print FAIL, the joined error names the failed run, and Parallel
// stays usable afterwards.
func TestSweepSurvivesInjectedPanic(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	restore := harness.InjectFault(harness.FaultPanic, 1, 1)
	defer restore()

	o := Options{Quick: true, Workloads: []string{"bwaves", "lbm"}}
	wls := o.workloads()
	names := schemeNames([]Scheme{PARAWith(tracker.ModeNRR)})
	rows := slowdownSweep(o, wls, []int{1000, 2000}, 2, []Scheme{PARAWith(tracker.ModeNRR)}, 2_000)
	if len(rows) != 2 {
		t.Fatalf("%d sweep rows, want 2", len(rows))
	}
	var buf bytes.Buffer
	var errs []error
	for _, r := range rows {
		printSlowdownTable(&buf, fmt.Sprintf("poisoned T_RH=%d", r.trh), wls, names, r.slow)
		errs = append(errs, r.err)
	}
	err := errors.Join(errs...)
	if err == nil {
		t.Fatal("poisoned sweep returned nil error")
	}
	var se *harness.SimError
	if !errors.As(err, &se) {
		t.Fatalf("joined error carries no SimError: %v", err)
	}
	if se.Op != harness.OpPanic {
		t.Errorf("Op = %q, want %q", se.Op, harness.OpPanic)
	}
	msg := err.Error()
	if !strings.Contains(msg, "seed 0xd6ea11") {
		t.Errorf("error does not name the seed: %s", msg)
	}
	if !strings.Contains(msg, "bwaves") && !strings.Contains(msg, "lbm") {
		t.Errorf("error does not name the workload: %s", msg)
	}

	out := buf.String()
	for _, trh := range []int{1000, 2000} {
		if !strings.Contains(out, fmt.Sprintf("poisoned T_RH=%d", trh)) {
			t.Errorf("threshold %d did not render:\n%s", trh, out)
		}
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("degraded sweep rendered no FAIL cell:\n%s", out)
	}

	vals, perr := Parallel(8, func(i int) (int, error) { return i * i, nil })
	if perr != nil {
		t.Fatalf("Parallel unusable after panic: %v", perr)
	}
	for i, v := range vals {
		if v != i*i {
			t.Errorf("vals[%d] = %d after panic recovery", i, v)
		}
	}
}
