package stats

import (
	"math"
	"strings"
	"testing"
)

func TestIPCSumAndSlowdown(t *testing.T) {
	base := RunResult{CoreIPC: []float64{1, 1, 2}}
	scheme := RunResult{CoreIPC: []float64{0.9, 0.9, 1.8}}
	if got := base.IPCSum(); got != 4 {
		t.Errorf("IPCSum = %v", got)
	}
	if got := Slowdown(base, scheme); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Slowdown = %v, want 0.1", got)
	}
	if Slowdown(RunResult{}, scheme) != 0 {
		t.Error("zero baseline must give 0")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	r := RunResult{CoreIPC: []float64{1, 2}}
	ws, err := r.WeightedSpeedup([]float64{2, 4})
	if err != nil || ws != 1.0 {
		t.Errorf("WS = %v, %v", ws, err)
	}
	if _, err := r.WeightedSpeedup([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := r.WeightedSpeedup([]float64{0, 1}); err == nil {
		t.Error("zero alone IPC should fail")
	}
}

func TestSlowdownWS(t *testing.T) {
	base := RunResult{CoreIPC: []float64{2, 2}}
	scheme := RunResult{CoreIPC: []float64{1, 2}}
	got, err := SlowdownWS(base, scheme, base.CoreIPC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("SlowdownWS = %v, want 0.25", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"a", "longcol"}}
	tb.AddRow("x", "1")
	tb.AddRow("yyyy", "2")
	s := tb.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "longcol") {
		t.Errorf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d", len(lines))
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.1234); got != "12.34%" {
		t.Errorf("Pct = %q", got)
	}
}
