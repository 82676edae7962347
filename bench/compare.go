package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain implements `bench compare <setA> <setB>`: for every workload
// and metric it prints each set's median, quartiles and run count, a verdict
// against BENCHMARK.json's bound, and — where both sets ran the same seeds —
// the fraction of seed-paired runs set B wins. Runs of the same workload,
// seed and mode must carry identical digests and exact counters; any
// difference, or a metric worse beyond its bound, exits 1.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration (bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] <setA.jsonl> <setB.jsonl>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := compareSets(stdout, spec, a, b)
	if bad {
		return 1
	}
	return 0
}

func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// verdict judges B against A for one bounded metric. change is the relative
// move of B's median, positive when worse.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	change := (medB - medA) / math.Abs(medA)
	if m.Better == "higher" {
		change = -change
	}
	if m.Bound == 0 {
		return "-", change
	}
	spread := math.Max(relSpread(a), relSpread(b))
	if spread > m.Bound {
		switch {
		case allBetter(m, b, a):
			return "better", change
		case allBetter(m, a, b):
			return "worse", change
		}
		return "unresolved", change
	}
	switch {
	case change > m.Bound:
		return "worse", change
	case change < -m.Bound:
		return "better", change
	}
	return "ok", change
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// allBetter reports whether every value of x reads better than every value
// of y.
func allBetter(m metricSpec, x, y []float64) bool {
	for _, u := range x {
		for _, v := range y {
			if m.Better == "higher" && !(u > v) || m.Better != "higher" && !(u < v) {
				return false
			}
		}
	}
	return true
}

type setKey struct {
	workload string
	trace    bool
}

func compareSets(w io.Writer, spec benchSpec, a, b []record) (bad bool) {
	group := func(rs []record) map[setKey][]record {
		g := make(map[setKey][]record)
		for _, r := range rs {
			k := setKey{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []setKey
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, k := range keys {
		ra, rb := ga[k], gb[k]
		mode := "end-to-end"
		metrics := spec.EndToEnd
		if k.trace {
			mode, metrics = "per-layer (traced)", spec.PerLayer
		}
		fmt.Fprintf(w, "== %s, %s: A n=%d, B n=%d\n", k.workload, mode, len(ra), len(rb))
		if msgs := identityMismatches(ra, rb); len(msgs) > 0 {
			bad = true
			for _, m := range msgs {
				fmt.Fprintln(w, "  MISMATCH", m)
			}
		}
		for _, r := range append(append([]record(nil), ra...), rb...) {
			if !r.Correct || !r.Valid {
				fmt.Fprintf(w, "  note: run seed %d correct=%v valid=%v\n", r.Seed, r.Correct, r.Valid)
			}
		}
		fmt.Fprintf(w, "  %-28s %-8s %12s %12s %12s %12s %12s %12s %8s %6s %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "wins", "verdict")
		for _, m := range metrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v, change := verdict(m, va, vb)
			if v == "worse" {
				bad = true
			}
			wins := "-"
			if f, n := pairWins(m, ra, rb); n > 0 {
				wins = fmt.Sprintf("%.2f", f)
			}
			fmt.Fprintf(w, "  %-28s %-8s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %+7.1f%% %6s %s\n",
				m.Name, m.Unit, a1, a2, a3, b1, b2, b3, 100*change, wins, v)
		}
	}
	return bad
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairWins pairs runs by seed and returns the fraction B wins (ties count for
// neither side) and the number of pairs.
func pairWins(m metricSpec, a, b []record) (float64, int) {
	bySeed := make(map[uint64]float64)
	for _, r := range a {
		if v, ok := r.Metrics[m.Name]; ok {
			bySeed[r.Seed] = v.Value
		}
	}
	wins, pairs := 0, 0
	for _, r := range b {
		va, ok := bySeed[r.Seed]
		vb, ok2 := r.Metrics[m.Name]
		if !ok || !ok2 {
			continue
		}
		pairs++
		if m.Better == "higher" && vb.Value > va || m.Better != "higher" && vb.Value < va {
			wins++
		}
	}
	if pairs == 0 {
		return 0, 0
	}
	return float64(wins) / float64(pairs), pairs
}

// identityMismatches lists digests and exact counters that differ between
// runs of the same seed and budget, within and across the sets.
func identityMismatches(a, b []record) []string {
	type ident struct {
		digests  map[string]string
		counters map[string]float64
		where    string
	}
	type runKey struct {
		seed    uint64
		seconds float64
	}
	first := make(map[runKey]ident)
	var msgs []string
	for i, r := range append(append([]record(nil), a...), b...) {
		where := fmt.Sprintf("A[%d]", i)
		if i >= len(a) {
			where = fmt.Sprintf("B[%d]", i-len(a))
		}
		key := runKey{r.Seed, r.Seconds}
		prev, ok := first[key]
		if !ok {
			first[key] = ident{r.Digests, r.Counters, where}
			continue
		}
		for k, v := range r.Digests {
			if pv, ok := prev.digests[k]; ok && pv != v {
				msgs = append(msgs, fmt.Sprintf("seed %d: digest %s differs (%s vs %s)", r.Seed, k, prev.where, where))
			}
		}
		for k, v := range r.Counters {
			if pv, ok := prev.counters[k]; ok && pv != v {
				msgs = append(msgs, fmt.Sprintf("seed %d: counter %s differs: %v (%s) vs %v (%s)", r.Seed, k, pv, prev.where, v, where))
			}
		}
	}
	sort.Strings(msgs)
	return msgs
}
