package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/runcache"
	"repro/internal/stats"
)

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	name string
	run  func(r *runner) error
}

var workloads = []benchWorkload{
	{"fig19-quick-cold", runFig19Cold},
	{"attack-audit", runAttackAudit},
	{"dreamd-mixed", runDreamdMixed},
	{"fig19-sharded", runFig19Sharded},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// size fixes how much work each workload's operations do. fullSize is the
// benchmark; the smoke test runs a toy size through the same code.
type size struct {
	// figure renders the fig19 workloads' figure through o.Executor.
	figure       func(o exp.Options) error
	figWorkloads []string
	// figAccesses is the per-core trace length the figure simulates; set-up
	// generates those trace sets once to digest the inputs.
	figAccesses uint64

	attackTRH  int
	attackActs uint64
	// attackSchemes is the audited roster; nil audits pinnedSchemes.
	attackSchemes []string

	svcWorkloads []string
	svcSchemes   []string // simulate configs: svcWorkloads × svcSchemes
	svcCompare   []string // compare configs: svcWorkloads × svcCompare
	svcAccesses  uint64
	svcRate      float64 // open-loop requests per second
	svcBurst     int     // requests per closed-loop burst

	setupReps  int // set-ups per run (setup_s is their median)
	minPasses  int // passes per run however long they take; 2 or more, so a traced run has both kinds
	spotChecks int // sharded cells recomputed in-process after the passes
	golden     bool
}

var fullSize = size{
	figure:       exp.Fig19,
	figWorkloads: []string{"mcf"},
	figAccesses:  160_000,

	attackTRH:  1000,
	attackActs: 100_000,

	svcWorkloads: []string{"bwaves", "lbm", "mcf", "parest", "tc", "triad"},
	svcSchemes:   []string{"base", "mint-dreamr", "moat", "dreamc", "graphene-drfmsb", "para-dreamr", "dapper", "qprac"},
	svcCompare:   []string{"mint-dreamr", "moat", "dreamc", "qprac"},
	svcAccesses:  5_000,
	svcRate:      50,
	svcBurst:     1000,

	setupReps:  3,
	minPasses:  3,
	spotChecks: 2,
	golden:     true,
}

// pinnedSchemes is the scheme registry as of the commit that defined the
// benchmark. The audit runs exactly these, so registering a new scheme does
// not silently change the workload; a pinned name that disappears fails it.
var pinnedSchemes = []string{
	"abacus", "base", "dapper", "dreamc-randomized", "dreamc-randomized-2x",
	"dreamc-randomized-2x-rmaq", "dreamc-randomized-4x", "dreamc-randomized-4x-rmaq",
	"dreamc-randomized-rmaq", "dreamc-set-assoc", "dreamc-set-assoc-2x",
	"dreamc-set-assoc-2x-rmaq", "dreamc-set-assoc-4x", "dreamc-set-assoc-4x-rmaq",
	"dreamc-set-assoc-rmaq", "graphene-drfmab", "graphene-drfmsb", "graphene-nrr",
	"mint-dreamr", "mint-dreamr-drfmab", "mint-dreamr-drfmsb", "mint-dreamr-noatm",
	"mint-dreamr-noatm-rmaq", "mint-dreamr-rmaq", "mint-drfmab", "mint-drfmsb",
	"mint-nrr", "moat", "para-dreamr", "para-dreamr-noatm", "para-drfmab",
	"para-drfmsb", "para-nrr", "prob-hybrid", "prob-insert", "prob-replace", "qprac",
}

// runner accumulates one run's measurements.
type runner struct {
	opt options
	sz  size
	dir string // this run's scratch directory
	tr  *tracer

	setups      []float64 // s
	walls       []float64 // s, untraced passes
	tracedWalls []float64 // s, traced passes
	rates       []float64 // Minst/s, untraced passes
	lat         []float64 // ms, per operation, untraced passes
	passP99     []float64 // ms, each untraced pass's own 99th percentile
	lag         []float64 // ms, load generator lateness
	rssMB       float64   // subprocess peak (fig19-sharded); 0 = this process
	profiles    []string
	passLog     []passSummary

	attempted, failed int
	digests           map[string]string
	counters          map[string]float64 // exact: must repeat bit-for-bit
	layer             map[string]float64 // per-layer values that are not exact
	notes             []string           // mismatches; any note fails the run
}

func newRunner(opt options, sz size) (*runner, error) {
	dir := filepath.Join(opt.dir, fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{
		opt: opt, sz: sz, dir: dir,
		digests:  make(map[string]string),
		counters: make(map[string]float64),
		layer:    make(map[string]float64),
	}
	if opt.trace {
		r.tr = newTracer()

	}
	return r, nil
}

// cleanup removes the scratch directory; traced runs keep their spans and
// profiles one level up, next to the run records.
func (r *runner) cleanup() { os.RemoveAll(r.dir) }

func (r *runner) seed() uint64 { return r.opt.seed }

// budget is the measurement time of the run (--seconds).
func (r *runner) budget() time.Duration { return time.Duration(r.opt.seconds * float64(time.Second)) }

func (r *runner) mismatch(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tracer returns the span recorder for a pass: nil (recording nothing) unless
// the pass is traced.
func (r *runner) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

// passSummary is one pass as the run record lists it.
type passSummary struct {
	WallS  float64 `json:"wall_s"`
	Traced bool    `json:"traced,omitempty"`
	Rate   float64 `json:"minst_per_s"`
	P50MS  float64 `json:"p50_ms,omitempty"`
	P99MS  float64 `json:"p99_ms,omitempty"`
}

// passOut is what one measured pass (or burst) produced.
type passOut struct {
	wall      time.Duration
	inst      float64   // retired instructions in the results delivered
	lat       []float64 // ms per operation
	lag       []float64 // ms
	attempted int
	failed    int
	digests   map[string]string
	counters  map[string]float64
	layer     map[string]float64
}

// passes runs closed-loop passes until the measurement budget would be
// exceeded by one more pass of median length, and at least minPasses of them,
// so every run has a median pass however slow the host is. Traced runs
// alternate an untraced pass with a traced (profiled, span-recording,
// hook-counting) one, so trace.overhead_pct compares the two inside one run.
// Every pass must reproduce the first pass's digests and exact counters.
func (r *runner) passes(budget time.Duration, one func(k int, traced bool) (passOut, error)) error {
	start := time.Now()
	var all []float64
	var lastEnd time.Time
	for k := 0; ; k++ {
		if !lastEnd.IsZero() {
			// The generator's own delay between two passes.
			r.lag = append(r.lag, float64(time.Since(lastEnd))/float64(time.Millisecond))
		}
		traced := r.opt.trace && k%2 == 1
		var stop func()
		if traced {
			var err error
			if stop, err = r.startProfile(fmt.Sprintf("pass%d", k)); err != nil {
				return err
			}
		}
		p, err := one(k, traced)
		if stop != nil {
			stop()
		}
		if err != nil {
			return err
		}
		r.absorb(p, traced, fmt.Sprintf("pass %d", k))
		all = append(all, p.wall.Seconds())
		next := time.Duration(median(all) * float64(time.Second))
		if k+1 >= r.sz.minPasses && time.Since(start)+next > budget {
			return nil
		}
		lastEnd = time.Now()
	}
}

// absorb folds one pass into the run, checking its digests and exact
// counters against the earlier passes'.
func (r *runner) absorb(p passOut, traced bool, label string) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.lag = append(r.lag, p.lag...)
	ps := passSummary{WallS: p.wall.Seconds(), Traced: traced, Rate: p.inst / 1e6 / p.wall.Seconds()}
	if len(p.lat) > 0 {
		ps.P50MS, ps.P99MS = quantile(p.lat, 0.5), quantile(p.lat, 0.99)
	}
	r.passLog = append(r.passLog, ps)
	if traced {
		r.tracedWalls = append(r.tracedWalls, p.wall.Seconds())
		for k, v := range p.layer {
			r.layer[k] = v
		}
		h := hooks.take()
		r.layer["tracker.on_activate_calls"] = float64(h.activates)
		r.layer["tracker.on_refresh_calls"] = float64(h.refreshes)
		r.layer["tracker.ops_requested"] = float64(h.ops)
	} else {
		r.walls = append(r.walls, p.wall.Seconds())
		r.rates = append(r.rates, ps.Rate)
		r.lat = append(r.lat, p.lat...)
		if len(p.lat) > 0 {
			r.passP99 = append(r.passP99, ps.P99MS)
		}
		if !r.opt.trace {
			for k, v := range p.layer {
				r.layer[k] = v
			}
		}
	}
	for k, d := range p.digests {
		if prev, ok := r.digests[k]; ok && prev != d {
			r.mismatch("%s: digest %s changed between passes", label, k)
		}
		r.digests[k] = d
	}
	for k, v := range p.counters {
		if prev, ok := r.counters[k]; ok && prev != v {
			r.mismatch("%s: exact counter %s changed between passes (%v, was %v)", label, k, v, prev)
		}
		r.counters[k] = v
	}
}

// metrics computes every metric the run can report: the end-to-end set from
// the untraced passes, the per-layer set from the traced ones.
func (r *runner) metrics() (map[string]float64, error) {
	m := make(map[string]float64)
	if len(r.walls) == 0 || len(r.setups) == 0 {
		return nil, errors.New("no untraced pass or set-up was measured")
	}
	m["setup_s"] = median(r.setups)
	m["wall_s"] = median(r.walls)
	m["sim_minst_per_s"] = median(r.rates)
	m["latency_p50_ms"] = quantile(r.lat, 0.50)
	// A pass holds a few dozen operations, so its 99th percentile is about its
	// slowest one; the median over passes keeps one pass that met a slow
	// moment of the host from setting the run's tail. Latencies sampled
	// outside passes (dreamd-mixed's steady phase) are pooled.
	m["latency_p99_ms"] = quantile(r.lat, 0.99)
	if len(r.passP99) > 0 {
		m["latency_p99_ms"] = median(r.passP99)
	}
	if r.rssMB > 0 {
		m["peak_rss_mb"] = r.rssMB
	} else {
		m["peak_rss_mb"] = selfPeakRSSMB()
	}
	// Layers that do not run in a workload's process report zero work.
	for _, k := range absentLayerMetrics {
		m[k] = 0
	}
	for k, v := range r.layer {
		m[k] = v
	}
	for k, v := range r.counters {
		m[k] = v
	}
	m["loadgen.lag_p99_ms"] = 0
	if len(r.lag) > 0 {
		m["loadgen.lag_p99_ms"] = quantile(r.lag, 0.99)
	}
	if r.opt.trace {
		if len(r.tracedWalls) == 0 {
			return nil, errors.New("traced run measured no traced pass")
		}
		m["trace.overhead_pct"] = 100 * (median(r.tracedWalls)/median(r.walls) - 1)
		shares, err := foldProfiles(r.profiles)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			m[k] = v
		}
		if err := r.tr.write(r.artifact("spans.jsonl")); err != nil {
			return nil, err
		}
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v (too few samples?)", k, v)
		}
	}
	return m, nil
}

// absentLayerMetrics are per-layer metrics of layers that only some
// workloads exercise in a process the benchmark can observe (the service,
// the lease ledger, the run cache, trace generation, the event loop).
var absentLayerMetrics = []string{
	"svc.deduped", "svc.rejected", "svc.queue_depth_max",
	"harness.cells_leased", "harness.cells_stolen", "harness.cells_peer_served", "harness.shard_busy_frac",
	"runcache.mem_hits", "runcache.misses", "runcache.disk_hits", "runcache.disk_fills", "runcache.hit_ratio",
	"workload.trace_sets", "system.events",
}

// artifact names a file that outlives the run (spans, profiles), kept next
// to the run records.
func (r *runner) artifact(suffix string) string {
	return filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("%s-%d.%s", r.opt.workload, r.opt.seed, suffix))
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- digests and result counters ---------------------------------------------

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultDigest is the SHA-256 of a result's canonical (schema-versioned)
// JSON encoding.
func resultDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// combinedDigest folds a name → digest map into one digest, independent of
// map order.
func combinedDigest(m map[string]string) string {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s=%s\n", k, m[k])
	}
	return sha([]byte(b.String()))
}

// resultCounters sums the deterministic work counters of the simulations
// behind results (each distinct simulation once) and their retired
// instructions.
func resultCounters(results []stats.RunResult) (inst float64, c map[string]float64) {
	c = make(map[string]float64)
	var retired, misses, acts, hits, reads, writes, refs, drfms, nrrs, mits float64
	for _, r := range results {
		var ret int64
		for _, n := range r.CoreRetired {
			ret += n
		}
		retired += float64(ret)
		// MPKI is misses/retired*1000 computed in float64; inverting and
		// rounding recovers the integer miss count.
		misses += math.Round(r.MPKI * float64(ret) / 1000)
		acts += float64(r.Activations)
		hits += float64(r.RowHits)
		reads += float64(r.Reads)
		writes += float64(r.Writes)
		refs += float64(r.Refreshes)
		drfms += float64(r.DRFMsbs + r.DRFMabs)
		nrrs += float64(r.NRRs)
		mits += float64(r.Mitigations)
	}
	c["cpu.retired_minst"] = retired / 1e6
	c["cache.llc_misses"] = misses
	c["memctrl.activations"] = acts
	c["memctrl.row_hits"] = hits
	c["memctrl.reads"] = reads
	c["memctrl.writes"] = writes
	c["dram.refreshes"] = refs
	c["dram.drfm_cmds"] = drfms
	c["dram.nrrs"] = nrrs
	c["dram.mitigations"] = mits
	return retired, c
}

// cacheCounters turns a run-cache stats delta into the runcache layer's
// counters. Disk promotions are memory misses served without computing.
func cacheCounters(before, after runcache.Stats) map[string]float64 {
	memHits := (after.RunHits + after.MitHits) - (before.RunHits + before.MitHits)
	diskHits := (after.DiskRunHits + after.DiskMitHits) - (before.DiskRunHits + before.DiskMitHits)
	misses := (after.RunMisses + after.MitMisses) - (before.RunMisses + before.MitMisses) - diskHits
	traces := (after.TraceMisses - after.DiskTraceHits) - (before.TraceMisses - before.DiskTraceHits)
	c := map[string]float64{
		"runcache.mem_hits":   float64(memHits),
		"runcache.disk_hits":  float64(diskHits),
		"runcache.misses":     float64(misses),
		"runcache.disk_fills": float64(after.Disk.Puts - before.Disk.Puts),
		"workload.trace_sets": float64(traces),
	}
	return c
}

func hitRatio(c map[string]float64) float64 {
	served := c["runcache.mem_hits"] + c["runcache.disk_hits"]
	if total := served + c["runcache.misses"]; total > 0 {
		return served / total
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- golden digests -------------------------------------------------------------

// golden is one workload's committed expectation for one seed and
// measurement budget (the open-loop request count grows with the budget).
type golden struct {
	Seconds  float64            `json:"seconds"`
	Digests  map[string]string  `json:"digests"`
	Counters map[string]float64 `json:"counters"`
}

func (r *runner) goldenPath(wl string) string {
	return filepath.Join(r.opt.golden, fmt.Sprintf("%s-%#x.json", wl, r.opt.seed))
}

// checkGolden compares the run's digests and exact counters with the golden
// file for (workload, seed), if one exists for this budget, or rewrites it
// under -update-golden. Toy sizes never have goldens.
func (r *runner) checkGolden() {
	if !r.sz.golden {
		return
	}
	path := r.goldenPath(r.opt.workload)
	if r.opt.updateGolden {
		g := golden{Seconds: r.opt.seconds, Digests: r.digests, Counters: r.counters}
		data, err := json.MarshalIndent(g, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			r.mismatch("writing golden %s: %v", path, err)
		}
		return
	}
	g, ok, err := readGolden(path)
	if err != nil {
		r.mismatch("%v", err)
		return
	}
	if !ok || g.Seconds != r.opt.seconds {
		return
	}
	for _, k := range sortedKeys(g.Digests) {
		if got, ok := r.digests[k]; !ok {
			r.mismatch("golden %s: digest %s not produced", filepath.Base(path), k)
		} else if got != g.Digests[k] {
			r.mismatch("golden %s: digest %s differs", filepath.Base(path), k)
		}
	}
	for _, k := range sortedKeys(g.Counters) {
		if got, ok := r.counters[k]; !ok || got != g.Counters[k] {
			r.mismatch("golden %s: counter %s = %v, want %v", filepath.Base(path), k, got, g.Counters[k])
		}
	}
}

func readGolden(path string) (golden, bool, error) {
	var g golden
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return g, false, nil
	}
	if err != nil {
		return g, false, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, false, fmt.Errorf("parsing golden %s: %w", path, err)
	}
	return g, true, nil
}
