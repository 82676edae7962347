// Package stats computes the metrics the paper reports — weighted speedup,
// slowdown versus the unprotected baseline, RLP — and formats result tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// RunResult summarises one simulation.
type RunResult struct {
	Scheme   string
	Workload string
	TRH      int

	// Per-core instructions and IPC.
	CoreIPC     []float64
	CoreRetired []int64

	// Timing.
	SimTimeNS float64

	// Memory-system counters (summed over sub-channels).
	Activations uint64
	RowHits     uint64
	Reads       uint64
	Writes      uint64
	Refreshes   uint64
	NRRs        uint64
	DRFMsbs     uint64
	DRFMabs     uint64
	RLP         float64 // rows mitigated per DRFM command
	Mitigations uint64
	AvgReadNS   float64
	BWUtil      float64 // data-bus occupancy fraction
	MPKI        float64
	StorageBits int64

	// Security audit (attack runs).
	MaxAggressor uint64
	MaxVictim    uint64

	// Characterisation (Table 3): rows that received >=1, 1..4, and >=5
	// demand activations over the simulated interval.
	RowsTouched uint64
	Rows1to4    uint64
	Rows5Plus   uint64
}

// IPCSum is the throughput metric for rate-mode slowdowns: with identical
// per-core workloads, weighted speedup ratios reduce to IPC-sum ratios.
func (r RunResult) IPCSum() float64 {
	var s float64
	for _, v := range r.CoreIPC {
		s += v
	}
	return s
}

// WeightedSpeedup computes sum(IPC_i / aloneIPC_i). aloneIPC must align
// with CoreIPC.
func (r RunResult) WeightedSpeedup(aloneIPC []float64) (float64, error) {
	if len(aloneIPC) != len(r.CoreIPC) {
		return 0, fmt.Errorf("stats: %d alone IPCs for %d cores", len(aloneIPC), len(r.CoreIPC))
	}
	var ws float64
	for i, ipc := range r.CoreIPC {
		if aloneIPC[i] <= 0 {
			return 0, fmt.Errorf("stats: non-positive alone IPC for core %d", i)
		}
		ws += ipc / aloneIPC[i]
	}
	return ws, nil
}

// Slowdown reports the fractional performance loss of scheme versus base,
// using IPC sums (rate mode): 0.05 means 5% slower.
func Slowdown(base, scheme RunResult) float64 {
	b := base.IPCSum()
	if b <= 0 {
		return 0
	}
	return 1 - scheme.IPCSum()/b
}

// SlowdownWS reports slowdown using weighted speedups for heterogeneous
// mixes.
func SlowdownWS(base, scheme RunResult, aloneIPC []float64) (float64, error) {
	wb, err := base.WeightedSpeedup(aloneIPC)
	if err != nil {
		return 0, err
	}
	ws, err := scheme.WeightedSpeedup(aloneIPC)
	if err != nil {
		return 0, err
	}
	if wb <= 0 {
		return 0, fmt.Errorf("stats: non-positive baseline weighted speedup")
	}
	return 1 - ws/wb, nil
}

// Table formats rows of labelled values as an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a fraction as a percentage. NaN marks a cell whose run
// failed (see the experiment harness's degraded grids) and renders FAIL.
func Pct(f float64) string {
	if math.IsNaN(f) {
		return "FAIL"
	}
	return fmt.Sprintf("%.2f%%", 100*f)
}
