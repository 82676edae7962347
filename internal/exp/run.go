// Package exp contains the experiment harness: one registered experiment
// per table and figure of the paper, built on a shared single-run executor.
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/runcache/diskcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workload"
)

// Env carries everything a scheme builder needs to instantiate a mitigator
// for one sub-channel.
type Env struct {
	TRH         int
	Banks       int
	RowsPerBank int
	// ResetPeriod is the (WindowScale-scaled) number of REFs per tracker
	// reset window.
	ResetPeriod uint64
	// ScaledTTH returns a counter threshold scaled to the simulated
	// fraction of the refresh window, preserving steady-state mitigation
	// rates in short runs (DESIGN.md §1).
	ScaledTTH func(unscaled int) uint32
	Seed      uint64
}

// RNG derives a deterministic per-sub-channel generator.
func (e Env) RNG(sub int) *sim.RNG { return sim.NewRNG(e.Seed ^ uint64(sub+1)*0x517cc1b727220a95) }

// unscaledEnv is the Env of a run covering the whole refresh window at trh
// on the default geometry: counter thresholds unscaled and one tracker reset
// per memctrl.RefsPerWindow REFs. Figure 17's storage table and the DoS
// probe build trackers from it.
func unscaledEnv(trh int, seed uint64) Env {
	geom := addrmap.Default()
	return Env{
		TRH:         trh,
		Banks:       geom.Banks,
		RowsPerBank: geom.Rows,
		ResetPeriod: memctrl.RefsPerWindow,
		ScaledTTH:   func(unscaled int) uint32 { return uint32(unscaled) },
		Seed:        seed,
	}
}

// Scheme names a mitigation configuration and knows how to build it.
type Scheme struct {
	Name string
	// Build returns the mitigator for sub-channel sub; nil Build means
	// unprotected. Build must be a pure function of (Env, sub) and Name must
	// bake in every constructor parameter, because mitigated runs are
	// memoized under the Name (mitKey).
	Build func(env Env, sub int) (memctrl.Mitigator, error)
	// PRAC switches the DRAM to PRAC timings (tRP 14→36 ns).
	PRAC bool
}

// RunConfig describes one simulation.
//
// Run normalizes zero values before executing: Cores <= 0 becomes 8 (the
// Table-2 machine), AccessesPerCore == 0 becomes 200 000, WindowScale <= 0
// becomes 1, Seed == 0 becomes 0x5eed, and MaxTime == 0 becomes 200 ms of
// simulated time. Each normalization is announced once per process through
// the harness log so a silently-defaulted field can never masquerade as an
// intentional configuration.
type RunConfig struct {
	Workload        string // Suite workload (rate mode); empty when Traces set
	Cores           int    // <= 0 normalizes to 8
	AccessesPerCore uint64
	TRH             int
	Scheme          Scheme
	Seed            uint64 // 0 normalizes to 0x5eed
	// WindowScale is the fraction of tREFW the run represents; counter
	// thresholds and reset sweeps scale by it. 1.0 = unscaled.
	WindowScale float64
	// Audit enables the security auditor.
	Audit bool
	// SmallLLC shrinks the LLC to 256 KB (attack runs: models clflush).
	SmallLLC bool
	// Characterize counts per-row demand activations (Table 3).
	Characterize bool
	// MOPCap overrides the page-policy close-after-N limit (0 = default 4).
	MOPCap int
	// MixSeed selects an Appendix-D random SPEC2017 mix instead of
	// Workload (non-zero = workload.Mix(MixSeed, Cores, AccessesPerCore));
	// mix traces go through the run cache like rate-mode ones.
	MixSeed uint64
	// Traces overrides the workload with explicit traces (attack patterns);
	// such runs bypass the cache entirely.
	Traces []cpu.Trace
	// MaxTime caps simulated time (0 = default 200 ms).
	MaxTime sim.Tick

	// Metrics, when non-nil, attaches the observability layer (internal/obs):
	// per-bank stall attribution, epoch time-series sampling, and exporters.
	// Metrics-bearing runs bypass the run cache — a cache hit replays a stored
	// result without simulating, so it could emit nothing — and the RunResult
	// is bit-identical with metrics on or off (TestMetricsBitIdentity).
	Metrics *obs.Options
	// Ctx, when non-nil, cancels the run: the simulation aborts at the next
	// progress check with an error satisfying errors.Is(err, ctx.Err()).
	Ctx context.Context
}

// --- process-wide run cache -------------------------------------------------

// runCache memoizes trace generation and unprotected-baseline simulations
// across every experiment in the process (see internal/runcache). Disable
// it with SetCacheEnabled(false) to force recomputation.
var (
	runCache     = runcache.New(0)
	cacheEnabled atomic.Bool
)

func init() { cacheEnabled.Store(true) }

// SetCacheEnabled toggles the process-wide run cache and reports the
// previous setting. Disabling does not drop existing entries (use
// ResetCache); it only makes Run recompute.
func SetCacheEnabled(on bool) (was bool) { return cacheEnabled.Swap(on) }

// ResetCache drops every cached trace and run result and zeroes the
// hit/miss counters (tests, benchmarks).
func ResetCache() { runCache.Reset() }

// CacheStats snapshots the run cache's hit/miss counters.
func CacheStats() runcache.Stats { return runCache.Stats() }

// resultCodec serializes cached run results for the disk tier using the
// stats.RunResult schema_version=1 versioned JSON (PR 5). An entry written
// by a future schema fails UnmarshalJSON's version check, which the cache
// treats as a miss — the run is recomputed and the entry rewritten.
type resultCodec struct{}

func (resultCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(stats.RunResult)
	if !ok {
		return nil, fmt.Errorf("exp: cannot encode %T as run result", v)
	}
	return json.Marshal(r)
}

func (resultCodec) Decode(data []byte) (any, error) {
	var r stats.RunResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return r, nil
}

// SetDiskCache attaches a persistent disk tier at dir (maxBytes <= 0 selects
// diskcache.DefaultMaxBytes) to the process-wide run cache, or detaches the
// current one when dir is empty. On error (e.g. unwritable dir) the disk
// tier is left detached and the process continues compute-only; callers
// should warn and carry on rather than abort.
func SetDiskCache(dir string, maxBytes int64) error {
	if dir == "" {
		runCache.SetDisk(nil, nil)
		return nil
	}
	st, err := diskcache.Open(dir, maxBytes)
	if err != nil {
		runCache.SetDisk(nil, nil)
		return fmt.Errorf("opening disk cache %s: %w", dir, err)
	}
	st.Notice = harness.Noticef
	runCache.SetDisk(st, resultCodec{})
	return nil
}

// SetDiskCacheLockTuning adjusts the attached disk tier's cross-process
// entry-lock behavior: wait bounds how long a fill waits on another
// process's lock before duplicating the computation, stale is the age at
// which an orphaned lock (crashed holder) is broken. Zero keeps the current
// value; no-op when no disk tier is attached. Sharded campaign servers bound
// both by the lease TTL — a SIGKILLed sibling's orphaned lock must not stall
// a stolen cell longer than the lease protocol already tolerates, and
// duplicating the fill is the protocol's safe fallback.
func SetDiskCacheLockTuning(wait, stale time.Duration) {
	st := runCache.Disk()
	if st == nil {
		return
	}
	if wait > 0 {
		st.LockWait = wait
	}
	if stale > 0 {
		st.LockStale = stale
	}
}

// DiskCacheDir reports the attached disk tier's directory ("" when none).
func DiskCacheDir() string {
	if st := runCache.Disk(); st != nil {
		return st.Dir()
	}
	return ""
}

// simEvents counts event-loop events across every simulation actually
// executed by this process (cache hits replay a result, so they add
// nothing). The experiments CLI divides deltas of this counter by
// wall-clock for its -perfstats events/sec report.
var simEvents atomic.Uint64

// SimEvents reports the cumulative number of simulator events processed by
// this process so far.
func SimEvents() uint64 { return simEvents.Load() }

// defaultMetrics is the process-wide observability default applied to runs
// whose RunConfig.Metrics is nil (how the CLI -metrics flags reach every
// registered experiment without threading options through each of them).
var defaultMetrics atomic.Pointer[obs.Options]

// SetDefaultMetrics installs (or, with nil, clears) process-wide metrics
// options for every subsequent Run whose config leaves Metrics nil, and
// returns the previous setting. The options value is shared across runs, so
// callback fields (OnReport, OnEvent) must be goroutine-safe when runs
// execute in parallel.
func SetDefaultMetrics(o *obs.Options) (prev *obs.Options) {
	return defaultMetrics.Swap(o)
}

// traceKey builds the cache identity of cfg's trace set, and whether the
// config is cacheable at all (explicit Traces are not).
func (cfg RunConfig) traceKey() (runcache.TraceKey, bool) {
	if cfg.Traces != nil {
		return runcache.TraceKey{}, false
	}
	if cfg.MixSeed != 0 {
		return runcache.TraceKey{
			Kind: "mix", MixSeed: cfg.MixSeed,
			Cores: cfg.Cores, Accesses: cfg.AccessesPerCore,
		}, true
	}
	return runcache.TraceKey{
		Kind: "rate", Workload: cfg.Workload,
		Cores: cfg.Cores, Accesses: cfg.AccessesPerCore, Seed: cfg.Seed,
	}, true
}

// runKey builds the cache identity of an unprotected run, and whether the
// result is memoizable: only scheme-free (nil Build) runs on cacheable
// traces qualify, because mitigators both depend on extra inputs (T_RH,
// WindowScale, per-sub-channel RNGs) and carry per-run state. T_RH and
// WindowScale are deliberately excluded from the key — they do not affect
// an unprotected simulation — so a figure's threshold sweep shares one
// baseline per workload.
func (cfg RunConfig) runKey() (runcache.RunKey, bool) {
	if cfg.Scheme.Build != nil {
		return runcache.RunKey{}, false
	}
	return cfg.machineKey()
}

// machineKey builds the scheme-independent machine identity shared by
// runKey and mitKey: the trace plus every knob that shapes the simulated
// machine. It rejects metrics-bearing runs, which must actually simulate to
// emit anything.
func (cfg RunConfig) machineKey() (runcache.RunKey, bool) {
	tk, ok := cfg.traceKey()
	if !ok || cfg.Metrics != nil {
		return runcache.RunKey{}, false
	}
	mop := cfg.MOPCap
	if mop <= 0 {
		mop = memctrl.DefaultConfig().MOPCap
	}
	return runcache.RunKey{
		Trace:        tk,
		PRAC:         cfg.Scheme.PRAC,
		SmallLLC:     cfg.SmallLLC,
		Audit:        cfg.Audit,
		Characterize: cfg.Characterize,
		MOPCap:       mop,
		MaxTime:      int64(cfg.MaxTime),
	}, true
}

// mitKey builds the cache identity of a mitigated run, and whether the
// result is memoizable: any scheme with a Build qualifies on top of the
// machineKey conditions, its Name standing for its behavior (see
// Scheme.Build). T_RH, WindowScale, and the mitigator RNG seed all shape a
// mitigated simulation, so unlike runKey they are part of the key;
// WindowScale travels as its exact bit pattern.
func (cfg RunConfig) mitKey() (runcache.MitKey, bool) {
	if cfg.Scheme.Build == nil {
		return runcache.MitKey{}, false
	}
	mk, ok := cfg.machineKey()
	if !ok {
		return runcache.MitKey{}, false
	}
	return runcache.MitKey{
		Run:             mk,
		Scheme:          cfg.Scheme.Name,
		TRH:             cfg.TRH,
		WindowScaleBits: math.Float64bits(cfg.WindowScale),
		Seed:            cfg.Seed,
	}, true
}

// cachedTraces returns fresh replayers over the memoized trace set for cfg,
// generating and recording it on first use.
func cachedTraces(cfg RunConfig, key runcache.TraceKey) ([]cpu.Trace, error) {
	ts, err := runCache.Traces(key, func() (runcache.TraceSet, error) {
		gens, err := generateTraces(cfg)
		if err != nil {
			return nil, err
		}
		srcs := make([]runcache.Source, len(gens))
		for i, g := range gens {
			srcs[i] = g
		}
		return runcache.RecordAll(srcs), nil
	})
	if err != nil {
		return nil, err
	}
	traces := make([]cpu.Trace, len(ts))
	for i := range ts {
		traces[i] = runcache.NewReplayer(ts[i])
	}
	return traces, nil
}

// generateTraces builds cfg's trace generators directly (cache miss or
// cache disabled).
func generateTraces(cfg RunConfig) ([]cpu.Trace, error) {
	if cfg.MixSeed != 0 {
		traces, _, err := workload.Mix(cfg.MixSeed, cfg.Cores, cfg.AccessesPerCore)
		return traces, err
	}
	return workload.Rate(cfg.Workload, cfg.Cores, cfg.AccessesPerCore, cfg.Seed)
}

// relabel patches the identity fields a cached result carries from the run
// that populated the cache; everything else is identical by construction.
func relabel(r stats.RunResult, cfg RunConfig) stats.RunResult {
	r.Scheme = cfg.Scheme.Name
	r.Workload = cfg.Workload
	r.TRH = cfg.TRH
	// Clone the slices so callers can never alias the cached copy.
	r.CoreIPC = append([]float64(nil), r.CoreIPC...)
	r.CoreRetired = append([]int64(nil), r.CoreRetired...)
	return r
}

// --- wall-clock watchdog ----------------------------------------------------

// runTimeoutNS is the per-simulation wall-clock deadline in nanoseconds
// (0 = disabled, the default; the experiments CLI arms it for `-run all`).
var runTimeoutNS atomic.Int64

// SetRunTimeout arms (or, with d <= 0, disarms) a wall-clock deadline for
// every subsequent simulation attempt and returns the previous setting. A
// run that exceeds the deadline is aborted from its progress callback with
// a retryable harness.SimError carrying the last-progress snapshot.
func SetRunTimeout(d time.Duration) (prev time.Duration) {
	return time.Duration(runTimeoutNS.Swap(int64(d)))
}

// RunTimeout reports the current per-simulation wall-clock deadline.
func RunTimeout() time.Duration { return time.Duration(runTimeoutNS.Load()) }

// retryPolicy is the process-wide bounded-retry policy applied to
// transiently-failed simulations (harness.IsRetryable errors). The default
// reproduces the harness's historical behavior exactly: one immediate retry
// with a perturbed tiebreak seed. A service front-end can widen it to more
// attempts with exponential backoff via SetRetryPolicy.
var retryPolicy atomic.Value // harness.Backoff

func init() { retryPolicy.Store(harness.DefaultBackoff()) }

// SetRetryPolicy installs the retry policy for every subsequent Run and
// returns the previous one. Only the attempt count and pacing change;
// retries are salted by attempt number exactly as before, so the
// bit-identity contract of salted retries is unaffected.
func SetRetryPolicy(b harness.Backoff) (prev harness.Backoff) {
	return retryPolicy.Swap(b).(harness.Backoff)
}

// RetryPolicy reports the current retry policy.
func RetryPolicy() harness.Backoff { return retryPolicy.Load().(harness.Backoff) }

// retryCount counts scheduled retries process-wide (service /metrics).
var retryCount atomic.Uint64

// Retries reports how many simulation retries this process has scheduled.
func Retries() uint64 { return retryCount.Load() }

// tiebreakSalt perturbs the mitigator RNG seed on the bounded retry of a
// transiently-failed run: trace generation still uses the original Seed, so
// the retry replays the same workload, but scheduling tiebreaks inside the
// mitigators land differently — enough to escape a pathological livelock
// without changing what is being measured. Attempt 0 is unperturbed.
func tiebreakSalt(attempt int) uint64 {
	if attempt == 0 {
		return 0
	}
	return 0x6a09e667f3bcc909 * uint64(attempt)
}

// runID names cfg for error reporting and fault injection.
func (cfg RunConfig) runID() harness.RunID {
	wl := cfg.Workload
	if wl == "" && cfg.Traces != nil {
		wl = "traces"
	}
	return harness.RunID{Scheme: cfg.Scheme.Name, Workload: wl, Seed: cfg.Seed, TRH: cfg.TRH}
}

// Run executes one configuration and returns its metrics. Unprotected
// (scheme-free) runs on generated traces are memoized process-wide: the
// first request simulates, concurrent identical requests share that
// simulation (singleflight), and later ones return the cached result —
// bit-identical to an uncached run.
//
// Failures come back as *harness.SimError carrying the run identity; a
// retryable failure (watchdog trip, injected transient) is retried under the
// process retry policy (SetRetryPolicy; default one immediate retry) with a
// perturbed tiebreak seed per attempt before being reported.
func Run(cfg RunConfig) (stats.RunResult, error) {
	cfg = cfg.normalized()
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return stats.RunResult{}, harness.Wrap(cfg.runID(), err)
		}
	}

	pol := RetryPolicy()
	rctx := cfg.Ctx
	if rctx == nil {
		rctx = context.Background()
	}
	var r stats.RunResult
	err := harness.Retry(rctx, pol,
		func(attempt int) error {
			var aerr error
			r, aerr = runMemo(cfg, attempt)
			return aerr
		},
		func(attempt int, err error) {
			retryCount.Add(1)
			harness.Logf("exp: %s failed transiently, retrying with perturbed tiebreak seed (attempt %d of %d): %v",
				cfg.runID(), attempt+1, pol.Attempts(), err)
		})
	return r, err
}

// normalized applies Run's documented zero-value defaults and the
// process-wide metrics setting. It is shared by Run and the cache
// probe path (ProbeCell), which must key the cache with exactly the
// configuration Run would execute.
func (cfg RunConfig) normalized() RunConfig {
	if cfg.Cores <= 0 {
		harness.Noticef("exp-normalize-cores",
			"exp: RunConfig.Cores <= 0 normalized to 8 (documented on RunConfig; logged once)")
		cfg.Cores = 8
	}
	if cfg.AccessesPerCore == 0 {
		cfg.AccessesPerCore = 200_000
	}
	if cfg.WindowScale <= 0 {
		cfg.WindowScale = 1
	}
	if cfg.Seed == 0 {
		harness.Noticef("exp-normalize-seed",
			"exp: RunConfig.Seed == 0 normalized to 0x5eed (documented on RunConfig; logged once)")
		cfg.Seed = 0x5eed
	}
	if cfg.MaxTime == 0 {
		cfg.MaxTime = 200 * 1000 * 1000 * sim.TicksPerNS // 200 ms
	}
	if cfg.Metrics == nil {
		cfg.Metrics = defaultMetrics.Load()
	}
	return cfg
}

// runMemo routes one attempt through the run cache when the configuration
// is memoizable; failed fills are never retained (see runcache), so a
// retry attempt recomputes rather than replaying the failure.
func runMemo(cfg RunConfig, attempt int) (stats.RunResult, error) {
	if !cacheEnabled.Load() {
		return runUncached(cfg, attempt)
	}
	if key, ok := cfg.runKey(); ok {
		v, err := runCache.Run(key, func() (any, error) {
			r, err := runUncached(cfg, attempt)
			if err != nil {
				return nil, err
			}
			return r, nil
		})
		if err != nil {
			return stats.RunResult{}, err
		}
		return relabel(v.(stats.RunResult), cfg), nil
	}
	// Mitigated runs are only memoized from the unperturbed attempt: a retry
	// salts the mitigator RNGs (tiebreakSalt), so its result is legitimately
	// different from the canonical one and must never populate the cache.
	if key, ok := cfg.mitKey(); ok && attempt == 0 {
		v, err := runCache.Mit(key, func() (any, error) {
			r, err := runUncached(cfg, attempt)
			if err != nil {
				return nil, err
			}
			return r, nil
		})
		if err != nil {
			return stats.RunResult{}, err
		}
		return relabel(v.(stats.RunResult), cfg), nil
	}
	return runUncached(cfg, attempt)
}

// runUncached executes one already-normalized configuration attempt. Panics
// from simulation code are recovered into *harness.SimError with the stack,
// so a poisoned run surfaces as an ordinary error instead of killing the
// process (or wedging singleflight waiters sharing the fill).
func runUncached(cfg RunConfig, attempt int) (res stats.RunResult, err error) {
	id := cfg.runID()
	defer func() {
		if rec := recover(); rec != nil {
			res, err = stats.RunResult{}, harness.NewPanicError(id, rec, debug.Stack())
		}
	}()
	fault, err := harness.RunStart(id)
	if err != nil {
		return stats.RunResult{}, err
	}
	sysCfg := system.DefaultConfig()
	if cfg.Scheme.PRAC {
		sysCfg.Timings = dram.PRACTimings()
	}
	if cfg.SmallLLC {
		sysCfg.CacheCfg = cache.Config{SizeBytes: 256 << 10, Ways: 16, LineBytes: 64}
	}
	sysCfg.CtrlCfg.EnableAudit = cfg.Audit
	sysCfg.CtrlCfg.EnableCharacterization = cfg.Characterize
	if cfg.MOPCap > 0 {
		sysCfg.CtrlCfg.MOPCap = cfg.MOPCap
	}
	sysCfg.MaxTime = cfg.MaxTime

	resetPeriod := uint64(float64(memctrl.RefsPerWindow) * cfg.WindowScale)
	if resetPeriod < 8 {
		resetPeriod = 8
	}
	env := Env{
		TRH:         cfg.TRH,
		Banks:       sysCfg.Geometry.Banks,
		RowsPerBank: sysCfg.Geometry.Rows,
		ResetPeriod: resetPeriod,
		// The retry attempt perturbs only the mitigator RNGs; trace
		// generation below still uses the unsalted cfg.Seed.
		Seed: cfg.Seed ^ tiebreakSalt(attempt),
		ScaledTTH: func(unscaled int) uint32 {
			v := uint32(float64(unscaled) * cfg.WindowScale)
			if v < 2 {
				v = 2
			}
			return v
		},
	}
	if cfg.Scheme.Build != nil {
		mits := make([]memctrl.Mitigator, sysCfg.Geometry.SubChannels)
		for sub := range mits {
			m, err := cfg.Scheme.Build(env, sub)
			if err != nil {
				return stats.RunResult{}, fmt.Errorf("building %s: %w", cfg.Scheme.Name, err)
			}
			mits[sub] = m
		}
		sysCfg.NewMitigator = func(sub int) memctrl.Mitigator { return mits[sub] }
	}

	traces := cfg.Traces
	if traces == nil {
		var err error
		if key, ok := cfg.traceKey(); ok && cacheEnabled.Load() {
			traces, err = cachedTraces(cfg, key)
		} else {
			traces, err = generateTraces(cfg)
		}
		if err != nil {
			return stats.RunResult{}, err
		}
	}

	// The watchdog, cancellation, and any injected stall ride the progress
	// callback; with none armed the hook stays nil and the event loop is
	// exactly the pre-harness hot path.
	ctx := cfg.Ctx
	if wd := harness.NewWatchdog(id, RunTimeout()); wd != nil || fault != nil || ctx != nil {
		sysCfg.OnProgress = func(now sim.Tick, events uint64) error {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fault.Stall()
			return wd.Check(int64(now), events)
		}
	}

	var obsRun *obs.Run
	if cfg.Metrics != nil {
		obsRun = obs.NewRun(*cfg.Metrics, obs.Meta{
			Scheme:   cfg.Scheme.Name,
			Workload: id.Workload,
			TRH:      cfg.TRH,
			Seed:     cfg.Seed,
			Subs:     sysCfg.Geometry.SubChannels,
			Banks:    sysCfg.Geometry.Banks,
		})
		sysCfg.Obs = obsRun
	}

	sys, err := system.New(sysCfg, traces)
	if err != nil {
		return stats.RunResult{}, err
	}
	err = sys.Run()
	_, ev := sys.LoopStats()
	simEvents.Add(ev)
	if err != nil {
		return stats.RunResult{}, harness.Wrap(id, err)
	}
	if obsRun != nil {
		if err := sys.FinishObs(); err != nil {
			return stats.RunResult{}, harness.Wrap(id, fmt.Errorf("exporting metrics: %w", err))
		}
	}
	return collect(cfg, sys), nil
}

func collect(cfg RunConfig, sys *system.System) stats.RunResult {
	r := stats.RunResult{
		Scheme:   cfg.Scheme.Name,
		Workload: cfg.Workload,
		TRH:      cfg.TRH,
	}
	var retired int64
	for _, c := range sys.Cores() {
		r.CoreIPC = append(r.CoreIPC, c.IPC())
		r.CoreRetired = append(r.CoreRetired, c.Retired)
		retired += c.Retired
	}
	fin := sys.FinishTime()
	r.SimTimeNS = fin.Nanoseconds()
	var rlpSum, drfms uint64
	var busBusy sim.Tick
	for _, ctrl := range sys.Controllers() {
		dev := ctrl.Device()
		r.Activations += ctrl.Activations
		r.RowHits += ctrl.RowHits
		r.Reads += dev.Reads
		r.Writes += dev.Writes
		r.Refreshes += dev.Refreshes
		r.NRRs += dev.NRRs
		r.DRFMsbs += dev.DRFMsbs
		r.DRFMabs += dev.DRFMabs
		r.Mitigations += dev.MitigationCount
		rlpSum += dev.RLPSum
		drfms += dev.DRFMsbs + dev.DRFMabs
		busBusy += dev.BusBusy
		r.AvgReadNS += ctrl.AvgReadLatency().Nanoseconds()
		r.StorageBits += ctrl.Mitigator().StorageBits()
		if ctrl.Auditor != nil {
			if ctrl.Auditor.MaxAggr > r.MaxAggressor {
				r.MaxAggressor = ctrl.Auditor.MaxAggr
			}
			if ctrl.Auditor.MaxVictim > r.MaxVictim {
				r.MaxVictim = ctrl.Auditor.MaxVictim
			}
		}
		if ctrl.RowACTs != nil {
			ctrl.RowACTs.Range(func(_, n uint64) bool {
				r.RowsTouched++
				if n >= 5 {
					r.Rows5Plus++
				} else {
					r.Rows1to4++
				}
				return true
			})
		}
	}
	n := len(sys.Controllers())
	if n > 0 {
		r.AvgReadNS /= float64(n)
		r.StorageBits /= int64(n) // per sub-channel
	}
	if drfms > 0 {
		r.RLP = float64(rlpSum) / float64(drfms)
	}
	if fin > 0 {
		r.BWUtil = float64(busBusy) / float64(fin*sim.Tick(n))
	}
	if retired > 0 {
		r.MPKI = float64(sys.LLC().Misses) / float64(retired) * 1000
	}
	return r
}

// Parallel runs jobs concurrently, preserving result order. Identical
// in-flight simulations are additionally deduplicated by the run cache's
// singleflight layer, so concurrent figures never race to compute the same
// baseline twice. On failure it returns the partial results alongside the
// aggregate error (see ParallelCtx for the full contract).
func Parallel[T any](n int, job func(i int) (T, error)) ([]T, error) {
	results, _, err := ParallelCtx(context.Background(), n,
		func(_ context.Context, i int) (T, error) { return job(i) })
	return results, err
}

// ParallelCtx runs jobs with cancellation and error aggregation. The caller
// and up to GOMAXPROCS goroutines started for this call claim job indices
// from one counter, so at most GOMAXPROCS+1 jobs run at once, and every
// goroutine has exited when ParallelCtx returns. On the first job error (or
// panic, or external ctx cancellation) the batch is cancelled: jobs already
// claimed drain to completion, unclaimed indices are skipped and recorded as
// harness.ErrSkipped. It returns the per-index results that did finish
// (zero values elsewhere), a per-index error slice (nil = finished), and an
// errors.Join of the real failures — skip markers are reported in errs but
// excluded from the join so callers see causes, not fallout; callers that
// need exactly one result (the facade) must inspect errs to tell a skipped
// job from a finished one.
func ParallelCtx[T any](ctx context.Context, n int, job func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if n <= 0 {
		return nil, nil, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed atomic.Bool
	fail := func(i int, err error) {
		errs[i] = err
		failed.Store(true)
		cancel()
	}
	skip := func(i int) { errs[i] = fmt.Errorf("job %d: %w", i, harness.ErrSkipped) }
	run := func(i int) {
		// A panicking job becomes that index's failure instead of killing
		// the process.
		defer func() {
			if rec := recover(); rec != nil {
				fail(i, harness.NewPanicError(harness.RunID{}, rec, debug.Stack()))
			}
		}()
		if failed.Load() || jctx.Err() != nil {
			skip(i)
			return
		}
		r, err := job(jctx, i)
		if err != nil {
			// A job aborted by the batch context is fallout, not a cause: a
			// cancellation landing before or during a job must read as
			// skipped, never as a raced "real" failure, or which jobs
			// surface wrapped ctx errors would depend on scheduling.
			if cerr := jctx.Err(); cerr != nil && errors.Is(err, cerr) {
				skip(i)
				return
			}
			fail(i, err)
			return
		}
		results[i] = r
	}
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			run(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(n-1, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	var real []error
	for _, e := range errs {
		if e != nil && !errors.Is(e, harness.ErrSkipped) {
			real = append(real, e)
		}
	}
	return results, errs, errors.Join(real...)
}
