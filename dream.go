// Package dream is a from-scratch Go reproduction of "DREAM: Enabling
// Low-Overhead Rowhammer Mitigation via Directed Refresh Management"
// (Taneja & Qureshi, ISCA 2025).
//
// The package is a facade over the full simulation stack in internal/: a
// DDR5 memory-system simulator with the JEDEC DRFM interface, the paper's
// baseline trackers (PARA, MINT, Graphene, ABACuS, MOAT/PRAC), and the
// paper's contributions DREAM-R and DREAM-C. A few entry points cover most
// uses:
//
//   - SimulateContext runs one workload under one mitigation scheme and
//     reports performance and mitigation metrics; CompareContext adds the
//     unprotected baseline on identical traces and the slowdown.
//   - AttackContext mounts a Rowhammer pattern against a scheme and reports
//     the security audit (maximum unmitigated activations).
//   - RegisterScheme adds a custom tracker that every entry point, CLI and
//     dreamd can then run by name.
//   - The Analysis functions expose the paper's analytic models (revised
//     tracker parameters, storage budgets, rate-limit impact).
//
// Experiments regenerating every table and figure live behind
// cmd/experiments; see DESIGN.md for the per-experiment index.
package dream

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SchemeID names a mitigation configuration.
type SchemeID string

// Built-in schemes. NRR is the hypothetical per-bank command prior work
// assumed; DRFMsb/DRFMab are the JEDEC DDR5 commands; DREAM-R and DREAM-C
// are the paper's contributions.
const (
	Unprotected   SchemeID = "base"
	PARANRR       SchemeID = "para-nrr"
	PARADRFMsb    SchemeID = "para-drfmsb"
	PARADRFMab    SchemeID = "para-drfmab"
	MINTNRR       SchemeID = "mint-nrr"
	MINTDRFMsb    SchemeID = "mint-drfmsb"
	MINTDRFMab    SchemeID = "mint-drfmab"
	DreamRPARA    SchemeID = "para-dreamr"
	DreamRMINT    SchemeID = "mint-dreamr"
	DreamRMINTRL  SchemeID = "mint-dreamr-rmaq"
	GrapheneNRR   SchemeID = "graphene-nrr"
	GrapheneDRFM  SchemeID = "graphene-drfmsb"
	DreamC        SchemeID = "dreamc"
	DreamCSetAssc SchemeID = "dreamc-setassoc"
	DreamC2x      SchemeID = "dreamc-2x"
	ABACuS        SchemeID = "abacus"
	MOATPRAC      SchemeID = "moat"
	// Post-DREAM trackers (see PAPERS.md and the postdream experiment).
	DAPPER      SchemeID = "dapper"
	QPRAC       SchemeID = "qprac"
	ProbInsert  SchemeID = "prob-insert"
	ProbReplace SchemeID = "prob-replace"
	ProbHybrid  SchemeID = "prob-hybrid"
)

// Schemes lists the facade's named scheme IDs. The full roster — every
// registered scheme, including variants without a SchemeID constant and
// user registrations — is RegisteredSchemes.
func Schemes() []SchemeID {
	return []SchemeID{
		Unprotected, PARANRR, PARADRFMsb, PARADRFMab, MINTNRR, MINTDRFMsb,
		MINTDRFMab, DreamRPARA, DreamRMINT, DreamRMINTRL, GrapheneNRR,
		GrapheneDRFM, DreamC, DreamCSetAssc, DreamC2x, ABACuS, MOATPRAC,
		DAPPER, QPRAC, ProbInsert, ProbReplace, ProbHybrid,
	}
}

// schemeAliases maps facade SchemeID spellings that predate the registry
// onto registered names. Every other SchemeID is already a registered name.
var schemeAliases = map[SchemeID]string{
	DreamC:        "dreamc-randomized",
	DreamCSetAssc: "dreamc-set-assoc",
	DreamC2x:      "dreamc-randomized-2x",
}

func schemeFor(id SchemeID) (exp.Scheme, error) {
	name := string(id)
	if alias, ok := schemeAliases[id]; ok {
		name = alias
	}
	sc, ok := exp.SchemeByName(name)
	if !ok {
		return exp.Scheme{}, fmt.Errorf("dream: unknown scheme %q (RegisteredSchemes lists every name)", id)
	}
	return sc, nil
}

// Scheme-registry vocabulary, re-exported so custom trackers register
// through the facade without importing internals. A SchemeDescriptor's Build
// receives the run's SchemeEnv (threshold, geometry, window-scaled
// thresholds, the per-sub-channel RNG) and returns one Mitigator per
// sub-channel.
type (
	// SchemeEnv is the per-run environment a registered Build receives.
	SchemeEnv = exp.Env
	// SchemeDescriptor carries a scheme's constructor plus its declared
	// storage accounting and security model.
	SchemeDescriptor = exp.Descriptor
	// SecurityModel declares what a scheme guarantees (see SecurityKind).
	SecurityModel = exp.SecurityModel
	// SecurityKind classifies a SecurityModel.
	SecurityKind = exp.SecurityKind
	// SchemeMeta is one registry listing row (RegisteredSchemes).
	SchemeMeta = exp.SchemeMeta
)

// SecurityKind values, re-exported.
const (
	SecurityNone          = exp.SecurityNone
	SecurityDeterministic = exp.SecurityDeterministic
	SecurityProbabilistic = exp.SecurityProbabilistic
)

// RegisterScheme adds a custom mitigation scheme to the process-wide
// registry under name, making it a first-class peer of the built-ins: usable
// as Config.Scheme, runnable by every CLI via -scheme, listed by
// -list-schemes and GET /v1/schemes, and — because registered builds are
// identified by name — cacheable and campaign-shardable. The contract that
// buys: the name must be a complete identity for behavior. Build must be
// pure (same Env and sub always yield an equivalent mitigator; randomness
// only via Env.RNG), and any behavior change must change the name.
//
// Names are lowercase [a-z0-9] words separated by single dashes. Duplicate
// registrations (including collisions with built-ins) are rejected.
// Typically called from an init function or early in main; see
// examples/customtracker.
func RegisterScheme(name string, d SchemeDescriptor) error { return exp.Register(name, d) }

// MustRegisterScheme is RegisterScheme, panicking on error — for init-time
// registration of names known to be valid.
func MustRegisterScheme(name string, d SchemeDescriptor) { exp.MustRegister(name, d) }

// RegisteredSchemes lists every registered scheme (built-in and user),
// sorted by name, with descriptors' declared security model and
// storage-budget accounting evaluated at reference thresholds.
func RegisteredSchemes() []SchemeMeta { return exp.SchemeMetas() }

// Config describes one simulation through the facade. The zero value of
// every sizing field means "use the documented default" (see withDefaults);
// Validate rejects values that are present but out of range.
type Config struct {
	// Workload is one of Workloads() (paper Table 3); rate mode runs one
	// copy per core.
	Workload string
	// Scheme selects the mitigation configuration.
	Scheme SchemeID
	// TRH is the double-sided Rowhammer threshold (default 2000).
	TRH int
	// Cores (default 8) and AccessesPerCore (default 200_000) size the run.
	Cores           int
	AccessesPerCore uint64
	// Seed makes runs reproducible (default fixed).
	Seed uint64
	// WindowScale scales counter-tracker thresholds to the simulated
	// fraction of the 32 ms refresh window (default 1/16; see DESIGN.md).
	WindowScale float64
	// Audit enables the security auditor.
	Audit bool
	// Metrics, when non-nil, attaches the observability layer: per-bank
	// stall attribution, an epoch time-series, and the configured exporters.
	// The simulated schedule and the returned Result are bit-identical with
	// metrics on or off.
	Metrics *MetricsOptions
}

// Observability types, re-exported so facade users configure metrics and
// consume reports without importing internals.
type (
	// MetricsOptions selects what a run collects and where it exports.
	MetricsOptions = obs.Options
	// MetricsReport is the frozen end-of-run metrics view (Options.OnReport).
	MetricsReport = obs.Report
	// MetricsExporter renders a MetricsReport to a sink (Options.Exporters).
	MetricsExporter = obs.Exporter
	// EpochSample is one time-series point of the epoch sampler.
	EpochSample = obs.EpochSample
	// MetricsEvent is one sampled mitigation-trace record (Options.OnEvent).
	MetricsEvent = obs.Event
)

// RetryPolicy bounds how transiently-failed simulations are retried: a cap
// on total attempts and a base delay that doubles per retry, saturating
// rather than overflowing. Every process starts with two attempts and no
// delay, i.e. one immediate retry with a perturbed tiebreak seed.
type RetryPolicy = harness.Backoff

// SetRetryPolicy installs the retry policy for every subsequent run in this
// process and returns the previous one. Retries remain salted by attempt
// number, so widening the policy never changes what a successful run
// returns — only how patiently failures are retried.
func SetRetryPolicy(p RetryPolicy) (prev RetryPolicy) { return exp.SetRetryPolicy(p) }

// SetSimTimeout arms (or, with d <= 0, disarms) a wall-clock watchdog for
// every subsequent simulation attempt and returns the previous setting. A
// run exceeding the deadline aborts with a retryable structured error
// carrying its last forward-progress snapshot.
func SetSimTimeout(d time.Duration) (prev time.Duration) { return exp.SetRunTimeout(d) }

// SetCacheDir attaches a persistent result cache at dir for every
// subsequent run in this process (maxBytes caps it before LRU eviction;
// 0 = 4 GiB), so repeated identical simulations are served from disk across
// process restarts. An empty dir detaches the cache. Cached results are
// bit-identical to recomputation; corrupt or version-mismatched entries
// are recomputed, never surfaced as errors; metrics-bearing runs bypass the
// cache. On error (e.g. an unwritable directory) the process continues
// compute-only.
func SetCacheDir(dir string, maxBytes int64) error { return exp.SetDiskCache(dir, maxBytes) }

// withDefaults fills every unset sizing field with its documented default.
func (c Config) withDefaults() Config {
	if c.TRH == 0 {
		c.TRH = 2000
	}
	if c.WindowScale == 0 {
		c.WindowScale = 1.0 / 16
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.AccessesPerCore == 0 {
		c.AccessesPerCore = 200_000
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Validate reports whether the configuration is runnable. Zero values are
// legal everywhere they have defaults (a zero TRH means 2000, not an error);
// set values must be in range. Scheme has no default: it must name a
// registered scheme (built-in or RegisterScheme'd).
func (c Config) Validate() error {
	if c.TRH != 0 && c.TRH < 4 {
		return fmt.Errorf("dream: TRH %d out of range (trackers need TRH >= 4)", c.TRH)
	}
	if c.WindowScale != 0 && (c.WindowScale < 0 || c.WindowScale > 1) {
		return fmt.Errorf("dream: WindowScale %v out of range (0, 1]", c.WindowScale)
	}
	if c.Cores < 0 || c.Cores > 512 {
		return fmt.Errorf("dream: Cores %d out of range [0, 512]", c.Cores)
	}
	return validScheme(c.Scheme)
}

// validScheme rejects an empty or unregistered scheme ID.
func validScheme(id SchemeID) error {
	if id == "" {
		return fmt.Errorf("dream: Scheme is required (RegisteredSchemes lists every name)")
	}
	_, err := schemeFor(id)
	return err
}

// runConfig lowers a default-filled facade config onto the experiment
// runner's RunConfig.
func (c Config) runConfig(sc exp.Scheme, ctx context.Context) exp.RunConfig {
	return exp.RunConfig{
		Workload:        c.Workload,
		Cores:           c.Cores,
		AccessesPerCore: c.AccessesPerCore,
		TRH:             c.TRH,
		Scheme:          sc,
		Seed:            c.Seed,
		WindowScale:     c.WindowScale,
		Audit:           c.Audit,
		Metrics:         c.Metrics,
		Ctx:             ctx,
	}
}

// Result is re-exported from the stats package.
type Result = stats.RunResult

// firstJobErr maps CompareContext's ParallelCtx outcome onto the facade
// contract. The harness treats context-skipped jobs as non-failures (a
// -keep-going campaign must not count them), but a facade caller asked for
// exactly these results — a job skipped by the caller's context surfaces
// ctx.Err() instead of silently returning a zero Result.
func firstJobErr(ctx context.Context, errs []error, err error) error {
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return e
		}
	}
	return nil
}

// Workloads lists the Table-3 workload names.
func Workloads() []string { return workload.Names() }

// SimulateContext runs one configuration under ctx: cancelling ctx aborts
// the simulation at its next progress check with an error satisfying
// errors.Is(err, ctx.Err()). The run goes through exp.Run, the same
// cached, retried and panic-isolated path every experiment cell takes.
func SimulateContext(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sc, err := schemeFor(cfg.Scheme)
	if err != nil {
		return Result{}, err
	}
	return exp.Run(cfg.runConfig(sc, ctx))
}

// CompareContext runs the unprotected baseline and the scheme on identical
// traces and returns both results plus the slowdown fraction. Baseline and
// scheme run concurrently on the shared worker pool (the trace set is
// memoized by seed), and cancelling ctx aborts both.
func CompareContext(ctx context.Context, cfg Config) (base, scheme Result, slowdown float64, err error) {
	cfg = cfg.withDefaults()
	if err = cfg.Validate(); err != nil {
		return
	}
	sc, err := schemeFor(cfg.Scheme)
	if err != nil {
		return
	}
	results, errs, err := exp.ParallelCtx(ctx, 2,
		func(jctx context.Context, i int) (Result, error) {
			rc := cfg.runConfig(sc, jctx)
			if i == 0 {
				rc.Scheme = exp.Scheme{Name: "base"}
			}
			return exp.Run(rc)
		})
	if err = firstJobErr(ctx, errs, err); err != nil {
		return
	}
	base, scheme = results[0], results[1]
	slowdown = stats.Slowdown(base, scheme)
	return
}

// AttackKind selects a Rowhammer pattern.
type AttackKind string

// Attack patterns.
const (
	// AttackDoubleSided alternates the two neighbours of a victim row.
	AttackDoubleSided AttackKind = "double-sided"
	// AttackCircular cycles W unique rows (the MINT-stressing pattern).
	AttackCircular AttackKind = "circular"
)

// AttackConfig describes an attack run. As with Config, zero sizing fields
// take documented defaults and Validate rejects out-of-range values.
type AttackConfig struct {
	Kind   AttackKind
	Scheme SchemeID
	TRH    int
	Acts   uint64 // attacker activations (default 500_000)
	Seed   uint64
	// Cores sizes the machine (default 8): core 0 runs the attacker, the
	// rest run Victims (or sit idle).
	Cores   int
	Victims string // optional benign workload on the other cores
	// Metrics attaches the observability layer, as on Config.
	Metrics *MetricsOptions
}

// withDefaults fills every unset sizing field with its documented default.
func (c AttackConfig) withDefaults() AttackConfig {
	if c.TRH == 0 {
		c.TRH = 2000
	}
	if c.Acts == 0 {
		c.Acts = 500_000
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Validate reports whether the attack configuration is runnable.
func (c AttackConfig) Validate() error {
	switch c.Kind {
	case AttackDoubleSided, AttackCircular:
	default:
		return fmt.Errorf("dream: unknown attack kind %q", c.Kind)
	}
	if c.TRH != 0 && c.TRH < 4 {
		return fmt.Errorf("dream: TRH %d out of range (trackers need TRH >= 4)", c.TRH)
	}
	if c.Cores < 0 || c.Cores > 512 {
		return fmt.Errorf("dream: Cores %d out of range [0, 512]", c.Cores)
	}
	return validScheme(c.Scheme)
}

// AttackResult reports the audit outcome.
type AttackResult struct {
	Result
	// Breached reports whether any victim accumulated 2·TRH neighbour
	// activations without a refresh (security.Breached): the paper's §2.1
	// success criterion with its Appendix-B convention that a double-sided
	// threshold of TRH permits TRH activations per side.
	Breached bool
}

// MarshalJSON emits the embedded Result's versioned encoding plus the
// "breached" field. Without this, the promoted Result.MarshalJSON would
// silently drop Breached from the output.
func (r AttackResult) MarshalJSON() ([]byte, error) {
	inner, err := json.Marshal(r.Result)
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(inner, &fields); err != nil {
		return nil, err
	}
	breached, err := json.Marshal(r.Breached)
	if err != nil {
		return nil, err
	}
	fields["breached"] = breached
	return json.Marshal(fields)
}

// AttackContext mounts the pattern against the scheme with the auditor
// enabled (exp.AttackTraces builds the machine's traces). The attacker runs
// with a tiny LLC (modelling clflush) at maximum rate. Cancelling ctx aborts
// the run as in SimulateContext.
func AttackContext(ctx context.Context, cfg AttackConfig) (AttackResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return AttackResult{}, err
	}
	sc, err := schemeFor(cfg.Scheme)
	if err != nil {
		return AttackResult{}, err
	}
	traces, err := exp.AttackTraces(string(cfg.Kind), cfg.TRH, cfg.Acts, cfg.Cores, cfg.Victims, cfg.Seed)
	if err != nil {
		return AttackResult{}, err
	}
	r, err := exp.Run(exp.RunConfig{
		Workload: string(cfg.Kind), Cores: cfg.Cores, AccessesPerCore: cfg.Acts,
		TRH: cfg.TRH, Scheme: sc, Seed: cfg.Seed, WindowScale: 1,
		Audit: true, SmallLLC: true, Traces: traces,
		Metrics: cfg.Metrics, Ctx: ctx,
	})
	if err != nil {
		return AttackResult{}, err
	}
	return AttackResult{Result: r, Breached: security.Breached(r.MaxVictim, cfg.TRH)}, nil
}

// Mitigator is re-exported so downstream users can implement custom
// trackers against the controller hook and register them with
// RegisterScheme (see examples/customtracker).
type Mitigator = memctrl.Mitigator

// Decision, Op, Tick, and Mitigation are the hook vocabulary for custom
// mitigators.
type (
	Decision   = memctrl.Decision
	Op         = memctrl.Op
	Tick       = memctrl.Tick
	Mitigation = dram.Mitigation
)

// Op kinds, re-exported.
const (
	OpNRR            = memctrl.OpNRR
	OpDRFMsb         = memctrl.OpDRFMsb
	OpDRFMab         = memctrl.OpDRFMab
	OpExplicitSample = memctrl.OpExplicitSample
	OpGangMitigate   = memctrl.OpGangMitigate
	OpStallAll       = memctrl.OpStallAll
)

// Analysis re-exports the paper's analytic models.
type Analysis struct{}

// RevisedPARAProb returns DREAM-R's PARA probability without ATM
// (Appendix A; 1/85 at T_RH = 2000).
func (Analysis) RevisedPARAProb(trh int) float64 { return security.RevisedPARAProbApprox(trh) }

// RevisedMINTWindow returns DREAM-R's MINT window without ATM (Appendix B).
func (Analysis) RevisedMINTWindow(trh int) int { return security.RevisedMINTWindow(trh) }

// GrapheneKBPerBank returns Table 1's storage.
func (Analysis) GrapheneKBPerBank(trh int) float64 { return security.GrapheneKBPerBank(trh) }

// DreamCKBPerBank returns Table 6's storage.
func (Analysis) DreamCKBPerBank(trh int) float64 { return security.DreamCKBPerBank(trh, 1) }

// ABACuSKBPerBank returns the §5.8 comparison storage.
func (Analysis) ABACuSKBPerBank(trh int) float64 { return security.ABACuSKBPerBank(trh) }

// RMAQImpact returns Table 7's threshold increase under the DRFM rate
// limit.
func (Analysis) RMAQImpact(w int) int { return security.RMAQImpact(w) }
