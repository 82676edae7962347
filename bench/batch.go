package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	dream "repro"
	"repro/internal/exp"
	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// --- fig19-quick-cold -------------------------------------------------------------

// runFig19Cold renders the quick Figure 19 in-process, cold: every pass
// starts from an empty run cache and no disk tier, so each pass generates its
// traces and simulates every distinct cell on exp's shared worker pool.
func runFig19Cold(r *runner) error {
	if err := r.inputSetups(); err != nil {
		return err
	}
	return r.passes(r.budget(), func(k int, traced bool) (passOut, error) {
		exp.ResetCache()
		before := exp.CacheStats()
		ev0 := exp.SimEvents()
		ex := newCellExecutor(r, k, traced, nil)
		var fig bytes.Buffer
		start := time.Now()
		ferr := r.sz.figure(r.figOptions(&fig, ex))
		wall := time.Since(start)
		p := ex.finish(wall, fig.Bytes(), ferr)
		p.counters["system.events"] = float64(exp.SimEvents() - ev0)
		for name, v := range cacheCounters(before, exp.CacheStats()) {
			p.counters[name] = v
		}
		p.layer["runcache.hit_ratio"] = hitRatio(p.counters)
		p.layer["loadgen.sent"] = float64(p.attempted)
		return p, nil
	})
}

// inputSetups is the fig19 workloads' set-up: generate the figure's input
// trace sets from the seed, record them, and digest them (the workload and
// runcache layers' public entry points), setupReps times.
func (r *runner) inputSetups() error {
	var first string
	for i := 0; i < r.sz.setupReps; i++ {
		start := time.Now()
		var all []byte
		for _, wl := range r.sz.figWorkloads {
			traces, err := workload.Rate(wl, 8, r.sz.figAccesses, r.seed())
			if err != nil {
				return err
			}
			srcs := make([]runcache.Source, len(traces))
			for j, t := range traces {
				srcs[j] = t
			}
			all = append(all, runcache.EncodeTraceSet(runcache.RecordAll(srcs))...)
		}
		d := sha(all)
		r.setups = append(r.setups, time.Since(start).Seconds())
		if i > 0 && d != first {
			r.mismatch("set-up %d: input trace sets differ from set-up 0", i)
		}
		first = d
	}
	r.digests["inputs"] = first
	return nil
}

func (r *runner) figOptions(out *bytes.Buffer, ex exp.Executor) exp.Options {
	return exp.Options{Quick: true, Seed: r.seed(), Workloads: r.sz.figWorkloads, Out: out, Executor: ex}
}

// cellExecutor is the figure's exp.Executor. In-process (inner == nil) it
// runs each wave on exp's shared worker pool exactly as exp's local executor
// does — ParallelCtx over ExecCell — timing every cell; traced passes run the
// cells with hook-counting scheme builds and record a span per wave and cell.
// With inner set (the sharded workload) it delegates and records results.
type cellExecutor struct {
	r     *runner
	tr    *tracer
	trace string
	root  *span
	count bool // run cells through hook-counting scheme builds
	inner exp.Executor

	mu        sync.Mutex
	seen      map[string]bool // simulations already executed this pass
	sims      []exp.CampaignCell
	results   []stats.RunResult // one per distinct simulation
	digests   map[string]string
	lat       []float64
	attempted int
	failed    int
	errs      []error
}

func newCellExecutor(r *runner, pass int, traced bool, inner exp.Executor) *cellExecutor {
	e := &cellExecutor{
		r: r, tr: r.tracerFor(traced), trace: fmt.Sprintf("pass-%d", pass), inner: inner,
		seen: make(map[string]bool), digests: make(map[string]string),
	}
	if traced && inner == nil {
		e.count = true
	}
	e.root = e.tr.start(e.trace, 0, "pass")
	return e
}

// simKey identifies the simulation behind a cell: baseline cells at different
// thresholds share one memoized simulation.
func simKey(c exp.CampaignCell) string {
	if c.Scheme == exp.Baseline.Name {
		c.TRH = 0
	}
	return c.Key()
}

func cellName(c exp.CampaignCell) string {
	return fmt.Sprintf("cell/%s/%s/%d", c.Workload, c.Scheme, c.TRH)
}

func (e *cellExecutor) ExecCells(ctx context.Context, cells []exp.CampaignCell) []exp.CellResult {
	wave := e.tr.start(e.trace, e.root.id(), "wave")
	defer wave.end(map[string]any{"cells": len(cells)})
	if e.inner != nil {
		out := e.inner.ExecCells(ctx, cells)
		for i, c := range cells {
			e.record(c, out[i].Res, out[i].Err, -1)
		}
		return out
	}
	results, errs, _ := exp.ParallelCtx(ctx, len(cells), func(ctx context.Context, i int) (stats.RunResult, error) {
		c := cells[i]
		sp := e.tr.start(e.trace, wave.id(), "cell")
		start := time.Now()
		res, err := e.exec(ctx, c)
		d := time.Since(start)
		sp.end(map[string]any{"workload": c.Workload, "scheme": c.Scheme, "trh": c.TRH})
		e.record(c, res, err, d)
		return res, err
	})
	out := make([]exp.CellResult, len(cells))
	for i := range out {
		out[i] = exp.CellResult{Res: results[i], Err: errs[i]}
	}
	return out
}

// exec runs one cell: through exp.ExecCell, or — in traced passes — through
// exp.Run with the scheme's Build wrapped by the hook counter. The traced
// path must reproduce ExecCell's results bit-for-bit; the pass digests check
// that it does.
func (e *cellExecutor) exec(ctx context.Context, c exp.CampaignCell) (stats.RunResult, error) {
	if !e.count {
		return exp.ExecCell(ctx, c)
	}
	sc, ok := exp.SchemeByName(c.Scheme)
	if !ok {
		return stats.RunResult{}, fmt.Errorf("unknown scheme %q", c.Scheme)
	}
	if sc.Build != nil {
		sc.Build = hooks.wrap(sc.Build)
	}
	var ws float64
	if c.WindowScaleBits != 0 {
		ws = math.Float64frombits(c.WindowScaleBits)
	}
	return exp.Run(exp.RunConfig{
		Workload: c.Workload, MixSeed: c.MixSeed, Cores: c.Cores, AccessesPerCore: c.Accesses,
		TRH: c.TRH, Scheme: sc, Seed: c.Seed, WindowScale: ws, MOPCap: c.MOPCap, Ctx: ctx,
	})
}

// record notes one cell's outcome; d < 0 means its time was measured
// elsewhere. Latency samples are the first execution of each distinct
// simulation, not the memoized repeats.
func (e *cellExecutor) record(c exp.CampaignCell, res stats.RunResult, err error, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		e.errs = append(e.errs, fmt.Errorf("%s: %w", cellName(c), err))
		return
	}
	dg, derr := resultDigest(res)
	if derr != nil {
		e.failed++
		e.errs = append(e.errs, derr)
		return
	}
	e.digests[cellName(c)] = dg
	if k := simKey(c); !e.seen[k] {
		e.seen[k] = true
		e.sims = append(e.sims, c)
		e.results = append(e.results, res)
		if d >= 0 {
			e.lat = append(e.lat, float64(d)/float64(time.Millisecond))
		}
	}
}

// finish closes the pass: the figure digest, the cell digests and the
// deterministic counters of the distinct simulations.
func (e *cellExecutor) finish(wall time.Duration, fig []byte, ferr error) passOut {
	e.root.end(map[string]any{"cells": e.attempted, "wall_ms": float64(wall) / float64(time.Millisecond)})
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, err := range e.errs {
		e.r.mismatch("%s: %v", e.trace, err)
	}
	if ferr != nil && len(e.errs) == 0 {
		e.r.mismatch("%s: figure: %v", e.trace, ferr)
	}
	inst, counters := resultCounters(e.results)
	digests := make(map[string]string, len(e.digests)+1)
	for k, v := range e.digests {
		digests[k] = v
	}
	digests["figure"] = sha(fig)
	return passOut{
		wall: wall, inst: inst, lat: e.lat,
		attempted: e.attempted, failed: e.failed,
		digests: digests, counters: counters, layer: make(map[string]float64),
	}
}

// --- attack-audit ------------------------------------------------------------------

type attackJob struct {
	kind    dream.AttackKind
	scheme  string
	victims string
}

func (j attackJob) name() string { return fmt.Sprintf("attack/%s/%s", j.kind, j.scheme) }

// tracedName is the registry name of a scheme's hook-counting twin, which
// traced attack passes run in its place (the facade resolves schemes only by
// name).
func tracedName(scheme string) string { return "bench-traced-" + scheme }

// runAttackAudit mounts two attacks against every pinned scheme through the
// facade with the auditor on: double-sided next to seven mcf victim cores, and
// a circular pattern on an otherwise idle machine. Two callers share the job
// list closed-loop.
func runAttackAudit(r *runner) error {
	schemes := r.sz.attackSchemes
	if schemes == nil {
		schemes = pinnedSchemes
	}
	registered := make(map[string]bool)
	for _, n := range exp.SchemeNames() {
		registered[n] = true
	}
	var jobs []attackJob
	for _, s := range schemes {
		if !registered[s] {
			return fmt.Errorf("audited scheme %q is not registered", s)
		}
		jobs = append(jobs,
			attackJob{kind: dream.AttackDoubleSided, scheme: s, victims: "mcf"},
			attackJob{kind: dream.AttackCircular, scheme: s})
	}
	twins := make(map[string]bool)
	if r.opt.trace {
		for _, s := range schemes {
			d, ok := exp.DescriptorFor(s)
			if !ok || d.Build == nil {
				continue
			}
			twins[s] = true
			if registered[tracedName(s)] {
				continue // an earlier run in this process registered it
			}
			d.Build = hooks.wrap(d.Build)
			if err := exp.Register(tracedName(s), d); err != nil {
				return err
			}
		}
	}
	ctx := context.Background()
	call := func(j attackJob, traced bool) (dream.AttackResult, error) {
		scheme := j.scheme
		if traced && twins[scheme] {
			scheme = tracedName(scheme)
		}
		res, err := dream.AttackContext(ctx, dream.AttackConfig{
			Kind: j.kind, Scheme: dream.SchemeID(scheme), TRH: r.sz.attackTRH,
			Acts: r.sz.attackActs, Seed: r.seed(), Cores: 8, Victims: j.victims,
		})
		res.Result.Scheme = j.scheme
		return res, err
	}

	// Set-up: one warm-up attack, so lazy initialisation (worker pool,
	// first-touch allocations) finishes before the first timed pass.
	var warm string
	for i := 0; i < r.sz.setupReps; i++ {
		start := time.Now()
		res, err := call(jobs[0], false)
		r.setups = append(r.setups, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", jobs[0].name(), err)
		}
		d, err := resultDigest(res)
		if err != nil {
			return err
		}
		if i > 0 && d != warm {
			r.mismatch("set-up %d: warm-up result differs", i)
		}
		warm = d
	}

	return r.passes(r.budget(), func(k int, traced bool) (passOut, error) {
		tr := r.tracerFor(traced)
		trace := fmt.Sprintf("pass-%d", k)
		root := tr.start(trace, 0, "pass")
		ev0 := exp.SimEvents()
		results := make([]dream.AttackResult, len(jobs))
		errs := make([]error, len(jobs))
		lat := make([]float64, len(jobs))
		workers := runtime.GOMAXPROCS(0)
		last := make([]time.Time, workers) // each caller's previous return
		var lagMu sync.Mutex
		var lag []float64
		start := time.Now()
		closedLoop(len(jobs), workers, func(w, i int) {
			t0 := time.Now()
			if !last[w].IsZero() {
				lagMu.Lock()
				lag = append(lag, float64(t0.Sub(last[w]))/float64(time.Millisecond))
				lagMu.Unlock()
			}
			sp := tr.start(trace, root.id(), "attack")
			results[i], errs[i] = call(jobs[i], traced)
			last[w] = time.Now()
			lat[i] = float64(last[w].Sub(t0)) / float64(time.Millisecond)
			sp.end(map[string]any{"scheme": jobs[i].scheme, "kind": string(jobs[i].kind),
				"breached": results[i].Breached})
		})
		wall := time.Since(start)
		root.end(map[string]any{"attacks": len(jobs)})

		p := passOut{wall: wall, lat: lat, lag: lag, attempted: len(jobs),
			digests: make(map[string]string), layer: make(map[string]float64)}
		var runs []stats.RunResult
		var breached []byte
		times := make(map[string][]float64)
		for i, j := range jobs {
			times[j.scheme] = append(times[j.scheme], lat[i])
			if errs[i] != nil {
				p.failed++
				r.mismatch("%s: %s: %v", trace, j.name(), errs[i])
				continue
			}
			d, err := resultDigest(results[i])
			if err != nil {
				return p, err
			}
			p.digests[j.name()] = d
			runs = append(runs, results[i].Result)
			if results[i].Breached {
				breached = append(breached, j.name()+"\n"...)
			}
		}
		p.digests["breached"] = sha(breached)
		p.inst, p.counters = resultCounters(runs)
		p.counters["system.events"] = float64(exp.SimEvents() - ev0)
		p.layer["loadgen.sent"] = float64(len(jobs))
		if traced {
			writeSchemeTimes(tr, trace, times)
		}
		return p, nil
	})
}
