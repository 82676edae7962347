package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
)

// toyFigure stands in for Fig19 at toy size: one threshold, 5k accesses,
// the same plan → executor → render path.
func toyFigure(o exp.Options) error {
	ctx := context.Background()
	const trh, cores, accesses = 1000, 8, 5000
	base := o.Executor.ExecCells(ctx, exp.PlanGridBase(o.Workloads, trh, cores, accesses, o.Seed))
	byWL := make(map[string]stats.RunResult)
	var errs []error
	for i, wl := range o.Workloads {
		if base[i].Err != nil {
			errs = append(errs, base[i].Err)
			continue
		}
		byWL[wl] = base[i].Res
	}
	cells := exp.PlanGridSchemes(o.Workloads, []string{"mint-dreamr", "moat"}, trh, cores, accesses, o.Seed,
		func(string) uint64 { return math.Float64bits(1.0 / 32) })
	for i, res := range o.Executor.ExecCells(ctx, cells) {
		if res.Err != nil {
			errs = append(errs, res.Err)
			continue
		}
		c := cells[i]
		fmt.Fprintf(o.Out, "%s %s %.6f\n", c.Workload, c.Scheme, stats.Slowdown(byWL[c.Workload], res.Res))
	}
	return errors.Join(errs...)
}

var toySize = size{
	figure:       toyFigure,
	figWorkloads: []string{"mcf"},
	figAccesses:  5000,

	attackTRH:     1000,
	attackActs:    20_000,
	attackSchemes: []string{"base", "mint-dreamr"},

	svcWorkloads: []string{"mcf", "triad"},
	svcSchemes:   []string{"base", "mint-dreamr"},
	svcCompare:   []string{"moat"},
	svcAccesses:  2000,
	svcRate:      20,
	svcBurst:     50,

	setupReps:  2,
	minPasses:  2,
	spotChecks: 1,
}

// TestWorkloadsSmoke runs every workload at toy size, twice per mode with
// the same seed, and requires every declared metric, a correct result, and
// identical digests and exact counters across the two runs.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tmp := t.TempDir()
	dreamd := filepath.Join(tmp, "dreamd")
	build := exec.Command("go", "build", "-o", dreamd, "repro/cmd/dreamd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dreamd: %v\n%s", err, out)
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Fatalf("declared workload %q is not implemented", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				opt := options{
					workload: w.name, seed: 7, seconds: 2, trace: trace,
					spec: filepath.Join("..", "BENCHMARK.json"), dir: filepath.Join(tmp, "work"),
					dreamd: dreamd, golden: filepath.Join(tmp, "golden"),
				}
				var recs [2]record
				for i := range recs {
					rec, err := runOne(opt, toySize)
					if err != nil {
						t.Fatal(err)
					}
					if !rec.Correct {
						t.Fatalf("run %d incorrect: failed %d of %d: %v", i, rec.Failed, rec.Attempted, rec.Notes)
					}
					recs[i] = rec
				}
				declared := spec.EndToEnd
				if trace {
					declared = spec.PerLayer
				}
				if len(recs[0].Metrics) != len(declared) {
					t.Errorf("reported %d metrics, declared %d", len(recs[0].Metrics), len(declared))
				}
				for _, m := range declared {
					if _, ok := recs[0].Metrics[m.Name]; !ok {
						t.Errorf("declared metric %s not reported", m.Name)
					}
				}
				if msgs := identityMismatches(recs[:1], recs[1:]); len(msgs) > 0 {
					t.Errorf("digests or exact counters are not stable: %v", msgs)
				}
				if len(recs[0].Digests) == 0 {
					t.Error("no digests recorded")
				}
			})
		}
	}
	if _, err := os.Stat(filepath.Join(tmp, "golden")); err == nil {
		t.Error("toy runs must not write goldens")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/memctrl.(*Controller).Process"}, "memctrl"},
		{[]string{"repro/internal/memctrl.(*Auditor).onACT", "repro/internal/memctrl.(*Controller).Process"}, "memctrl.auditor"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/cpu.(*Core).Tick"}, "gc"},
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).finishRequest"}, "http"},
		{[]string{"reflect.Value.Field", "encoding/json.structEncoder.encode", "repro/internal/svc.writeJSON"}, "json"},
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "main.(*svcClient).do"}, "bench"},
		{[]string{"net/url.(*URL).RequestURI", "net/http.(*Request).write", "net/http.(*persistConn).writeLoop"}, "bench"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "runtime"},
		{[]string{"repro/internal/runcache/diskcache.(*Store).Get"}, "runcache"},
		{[]string{"sort.Sort", "some/other.pkg"}, "other"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
