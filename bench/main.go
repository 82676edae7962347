// Command bench is the repository's host-time benchmark. One invocation runs
// one workload in this process (plus, for fig19-sharded, two dreamd
// subprocesses), measures it from outside through the packages' public
// functions, checks every output against determinism, recomputation and the
// golden digests, and prints each metric as `name value unit` followed by one
// JSON result line. BENCHMARK.json declares the workloads, the metrics and
// their regression bounds; README.md explains them.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [-out runs.jsonl]
//	bench compare <setA.jsonl> <setB.jsonl>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// defaultSeed is exp's own default seed. The holdout seed, 0xbe7c4, is kept
// out of tuning and checks that a claim generalises; both have goldens.
const defaultSeed = 0xd6ea11

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rec, err := runOne(opt, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := emit(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(stderr, "bench: mismatch:", n)
	}
	if !rec.Valid {
		fmt.Fprintf(stderr, "bench: run invalid: load generator p99 lag %.3f ms exceeds %.0f ms\n",
			rec.LagP99MS, maxLagMS)
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// options is one invocation's command line.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	spec         string // BENCHMARK.json: declared metric names and units
	out          string // JSONL file the run record is appended to
	dir          string // scratch directory for caches, profiles and spans
	dreamd       string // dreamd binary for fig19-sharded
	golden       string // golden digest directory
	updateGolden bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var seed string
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.StringVar(&seed, "seed", strconv.Itoa(defaultSeed), "input seed (decimal or 0x hex; 0 means the default seed)")
	fs.Float64Var(&opt.seconds, "seconds", 24, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&opt.spec, "spec", "BENCHMARK.json", "benchmark declaration")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "runs.jsonl"), `JSONL file the run record is appended to ("" skips it)`)
	fs.StringVar(&opt.dir, "dir", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.StringVar(&opt.dreamd, "dreamd", filepath.Join(".bench_build", "dreamd"), "dreamd binary (fig19-sharded)")
	fs.StringVar(&opt.golden, "golden", filepath.Join("bench", "golden"), "golden digest directory")
	fs.BoolVar(&opt.updateGolden, "update-golden", false, "rewrite this workload's golden file for this seed")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	s, err := strconv.ParseUint(seed, 0, 64)
	if err != nil {
		return options{}, fmt.Errorf("bad -seed %q: %w", seed, err)
	}
	if s == 0 {
		s = defaultSeed
	}
	opt.seed = s
	if trace != 0 && trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		return options{}, fmt.Errorf("-seconds must be positive")
	}
	return opt, nil
}

// metricSpec is one declared metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark declaration: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured: the declared metrics plus the
// digests and exact counters that compare requires to be identical across
// sets, appended to -out as one JSON line.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	LagP99MS  float64           `json:"lag_p99_ms"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds every other value the run computed: the other mode's
	// metrics where measured, and diagnostics such as per-tier latencies.
	Extra    map[string]float64 `json:"extra"`
	Passes   []passSummary      `json:"passes"`
	Digests  map[string]string  `json:"digests"`
	Counters map[string]float64 `json:"counters"`
	Notes    []string           `json:"notes,omitempty"`
	Host     hostInfo           `json:"host"`
	Started  string             `json:"started"`
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// maxLagMS is the load generator's p99 lateness above which a run is marked
// invalid: the generator, not the system, would be setting the latencies.
const maxLagMS = 5.0

// runOne runs opt.workload at size sz and assembles its record, with exactly
// the metric set BENCHMARK.json declares for the mode.
func runOne(opt options, sz size) (record, error) {
	spec, err := loadSpec(opt.spec)
	if err != nil {
		return record{}, err
	}
	declared := spec.EndToEnd
	if opt.trace {
		declared = spec.PerLayer
	}
	if len(declared) == 0 {
		return record{}, errors.New("benchmark declaration lists no metrics")
	}
	w, ok := workloadByName(opt.workload)
	if !ok {
		return record{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	r, err := newRunner(opt, sz)
	if err != nil {
		return record{}, err
	}
	defer r.cleanup()
	started := time.Now().UTC().Format(time.RFC3339)
	if err := w.run(r); err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	values, err := r.metrics()
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	r.checkGolden()
	rec := record{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Attempted: r.attempted, Failed: r.failed,
		LagP99MS: values["loadgen.lag_p99_ms"],
		Metrics:  make(map[string]metric, len(declared)),
		Digests:  r.digests, Counters: r.counters, Notes: r.notes,
		Host: hostInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version()},
		Started: started,
	}
	rec.Correct = len(r.notes) == 0 && r.failed == 0 && r.attempted > 0
	rec.Valid = !(rec.LagP99MS > maxLagMS)
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return record{}, fmt.Errorf("%s: declared metric %s was not measured", w.name, m.Name)
		}
		rec.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	rec.Extra = values
	rec.Passes = r.passLog
	if opt.out != "" {
		if err := appendRecord(opt.out, rec); err != nil {
			return record{}, err
		}
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit prints every metric as `name value unit`, then the result line the
// benchmark's caller reads: the last line of standard output.
func emit(w io.Writer, rec record) error {
	names := sortedKeys(rec.Metrics)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
