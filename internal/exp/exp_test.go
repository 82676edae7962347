package exp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	dreamcore "repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tracker"
)

func TestAllSchemesBuild(t *testing.T) {
	env := Env{
		TRH: 2000, Banks: 32, RowsPerBank: 128 * 1024,
		ResetPeriod: 512, Seed: 1,
		ScaledTTH: func(u int) uint32 { return uint32(u / 16) },
	}
	schemes := []Scheme{
		PARAWith(tracker.ModeNRR), PARAWith(tracker.ModeDRFMsb), PARAWith(tracker.ModeDRFMab),
		MINTWith(tracker.ModeNRR), MINTWith(tracker.ModeDRFMsb), MINTWith(tracker.ModeDRFMab),
		DreamRPARA(true), DreamRPARA(false),
		DreamRMINT(true, false), DreamRMINT(true, true), DreamRMINT(false, false),
		GrapheneWith(tracker.ModeNRR), GrapheneWith(tracker.ModeDRFMsb),
		DreamC(dreamcore.GroupRandomized, 1, false),
		DreamC(dreamcore.GroupSetAssociative, 1, false),
		DreamC(dreamcore.GroupRandomized, 2, true),
		ABACuS(), MOAT(),
	}
	names := map[string]bool{}
	for _, sc := range schemes {
		if names[sc.Name] {
			t.Errorf("duplicate scheme name %q", sc.Name)
		}
		names[sc.Name] = true
		m, err := sc.Build(env, 0)
		if err != nil {
			t.Errorf("%s: %v", sc.Name, err)
			continue
		}
		if m.StorageBits() < 0 {
			t.Errorf("%s: negative storage", sc.Name)
		}
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, err := Find("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunBasic(t *testing.T) {
	r, err := Run(RunConfig{
		Workload: "xz", Cores: 2, AccessesPerCore: 3000, TRH: 2000,
		Scheme: PARAWith(tracker.ModeDRFMsb), Seed: 3, WindowScale: 1.0 / 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPCSum() <= 0 || r.Activations == 0 {
		t.Errorf("result = %+v", r)
	}
	if r.DRFMsbs == 0 {
		t.Error("PARA at 2K should issue DRFMs")
	}
}

func TestScaleFromBase(t *testing.T) {
	if got := scaleFromBase(32e6); got != 1 {
		t.Errorf("full window scale = %v", got)
	}
	if got := scaleFromBase(2e6); got != 1.0/16 {
		t.Errorf("2ms scale = %v", got)
	}
	if got := scaleFromBase(1); got != 1.0/128 {
		t.Errorf("clamp = %v", got)
	}
}

func TestAnalyticExperimentsOutput(t *testing.T) {
	for _, id := range []string{"table1", "table4", "table6", "table7", "fig11"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(Options{Quick: true, Out: &buf}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestTable6HeadlineNumbers(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6(Options{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"125", "256", "Graphene"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 6 output missing %q:\n%s", want, out)
		}
	}
}

// TestFig17StorageTable: Figure 17's storage column is each design's
// unscaled storage at T_RH 125 (the paper's 19 / 3 / 6 KB per bank), built
// without simulating anything.
func TestFig17StorageTable(t *testing.T) {
	tb, err := storageTable("Figure 17: storage", 125, []Scheme{
		ABACuS(),
		DreamC(dreamcore.GroupRandomized, 1, false),
		DreamC(dreamcore.GroupRandomized, 2, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"abacus", "19.00"},
		{"dreamc-randomized", "3.00"},
		{"dreamc-randomized-2x", "6.00"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %v, want %v", tb.Rows, want)
	}
	for i, w := range want {
		if got := tb.Rows[i]; len(got) != 2 || got[0] != w[0] || got[1] != w[1] {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
}

func TestParallelPreservesOrderAndErrors(t *testing.T) {
	vals, err := Parallel(5, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Errorf("vals[%d] = %d", i, v)
		}
	}
	_, err = Parallel(3, func(i int) (int, error) {
		if i == 1 {
			return 0, errTest
		}
		return 0, nil
	})
	if !errors.Is(err, errTest) {
		t.Errorf("err = %v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestAverageBy(t *testing.T) {
	slow := map[string]map[string]float64{
		"a": {"x": 0.1, "y": 0.3},
		"b": {"x": 0.3, "y": 0.1},
	}
	avg := averageBy([]string{"a", "b"}, []string{"x", "y"}, slow)
	if avg["x"] != 0.2 || avg["y"] != 0.2 {
		t.Errorf("avg = %v", avg)
	}
}

func TestPrintSlowdownTable(t *testing.T) {
	var buf bytes.Buffer
	slow := map[string]map[string]float64{"wl": {"s": 0.05}}
	printSlowdownTable(&buf, "T", []string{"wl"}, []string{"s"}, slow)
	if !strings.Contains(buf.String(), "5.00%") || !strings.Contains(buf.String(), "AVERAGE") {
		t.Errorf("output:\n%s", buf.String())
	}
}

var _ = stats.RunResult{}

func TestDreamRMINTKindSchemes(t *testing.T) {
	env := Env{
		TRH: 2000, Banks: 32, RowsPerBank: 128 * 1024,
		ResetPeriod: 512, Seed: 1,
		ScaledTTH: func(u int) uint32 { return uint32(u / 16) },
	}
	for _, kind := range []dreamcore.DRFMKind{dreamcore.DRFMsb, dreamcore.DRFMab} {
		sc := dreamRMINTKind(kind)
		if _, err := sc.Build(env, 0); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
}
