package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/runcache"
	"repro/internal/stats"
)

// A campaign is a figure's grid turned into a first-class job set: the
// planner enumerates self-contained CampaignCell values, and an Executor —
// in-process by default, a fan-out across dreamd shards (experiments -peers)
// otherwise — turns each cell into a stats.RunResult. Cells are serializable
// and carry everything needed to reproduce the run bit-exactly on another
// machine, so a figure renders byte-identically no matter where its cells
// executed.

// CampaignSchemaVersion versions the CampaignCell wire shape and the plan
// hash derivation. Peers with different versions must not exchange cells.
const CampaignSchemaVersion = 1

// KeyGeneration reports the content-hash key generation of the run cache
// (see runcache). It is stamped into campaign plans alongside
// CampaignSchemaVersion: two processes may only share cells when their
// binaries agree on what a cell's cache key means.
func KeyGeneration() string { return runcache.KeyGeneration() }

// CampaignCell is one serializable grid cell: a single simulation fully
// specified by value. Scheme travels by name (resolved through SchemeByName,
// so any registered scheme — built-in or user — is reachable on shards whose
// binaries register it; the client preflights rosters), and WindowScale by
// its exact float64 bit pattern — the planner derives it from the measured
// baseline and stamps it in, so a remote shard never needs the baseline to
// execute a scheme cell.
type CampaignCell struct {
	// Workload is the suite workload (rate mode), or the display label of a
	// mix cell when MixSeed is non-zero.
	Workload string `json:"workload,omitempty"`
	// MixSeed selects an Appendix-D random mix instead of rate-mode traces.
	MixSeed  uint64 `json:"mix_seed,omitempty"`
	Scheme   string `json:"scheme"`
	TRH      int    `json:"trh"`
	Cores    int    `json:"cores"`
	Accesses uint64 `json:"accesses"`
	Seed     uint64 `json:"seed"`
	// WindowScaleBits is math.Float64bits of the run's WindowScale
	// (0 = Run's default of 1.0).
	WindowScaleBits uint64 `json:"ws_bits,omitempty"`
	// MOPCap overrides the page-policy close-after-N limit (0 = default).
	MOPCap int `json:"mop_cap,omitempty"`
}

// Key renders the cell's content identity: every field spelled out under the
// campaign schema version and the run cache's key generation. Identical keys
// mean identical results (the simulator is deterministic), which is what
// makes duplicated execution across shards harmless.
func (c CampaignCell) Key() string {
	return "cell/v" + strconv.Itoa(CampaignSchemaVersion) + "/" + KeyGeneration() +
		"|wl=" + c.Workload +
		"|mix=" + strconv.FormatUint(c.MixSeed, 10) +
		"|scheme=" + c.Scheme +
		"|trh=" + strconv.Itoa(c.TRH) +
		"|cores=" + strconv.Itoa(c.Cores) +
		"|acc=" + strconv.FormatUint(c.Accesses, 10) +
		"|seed=" + strconv.FormatUint(c.Seed, 10) +
		"|ws=" + strconv.FormatUint(c.WindowScaleBits, 16) +
		"|mop=" + strconv.Itoa(c.MOPCap)
}

// Validate rejects cells that cannot be turned into a RunConfig: an unknown
// scheme name, no trace source, or nonsensical machine parameters. Executors
// validate before running so a malformed cell is a typed error, not a panic
// deep inside the simulator.
func (c CampaignCell) Validate() error {
	if c.Workload == "" && c.MixSeed == 0 {
		return fmt.Errorf("exp: campaign cell has neither workload nor mix seed")
	}
	if _, ok := SchemeByName(c.Scheme); !ok {
		return fmt.Errorf("exp: campaign cell names unknown scheme %q", c.Scheme)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("exp: campaign cell cores %d <= 0", c.Cores)
	}
	if c.Accesses == 0 {
		return fmt.Errorf("exp: campaign cell has zero accesses per core")
	}
	if c.Seed == 0 {
		return fmt.Errorf("exp: campaign cell has zero seed")
	}
	return nil
}

// runConfig expands the cell into the RunConfig it denotes.
func (c CampaignCell) runConfig() (RunConfig, error) {
	sc, ok := SchemeByName(c.Scheme)
	if !ok {
		return RunConfig{}, fmt.Errorf("exp: campaign cell names unknown scheme %q", c.Scheme)
	}
	var ws float64
	if c.WindowScaleBits != 0 {
		ws = math.Float64frombits(c.WindowScaleBits)
	}
	return RunConfig{
		Workload:        c.Workload,
		MixSeed:         c.MixSeed,
		Cores:           c.Cores,
		AccessesPerCore: c.Accesses,
		TRH:             c.TRH,
		Scheme:          sc,
		Seed:            c.Seed,
		WindowScale:     ws,
		MOPCap:          c.MOPCap,
	}, nil
}

// PlanHash fingerprints an ordered cell list under the campaign schema
// version and key generation. The campaign client stamps it into
// /v1/campaign requests and dreamd recomputes it, so a client/server pair
// that would disagree on any cell's identity — different schema, different
// key generation, skewed JSON handling — fails fast with a typed mismatch
// instead of silently merging incompatible results.
func PlanHash(cells []CampaignCell) string {
	h := sha256.New()
	fmt.Fprintf(h, "plan/v%d/%s/%d\n", CampaignSchemaVersion, KeyGeneration(), len(cells))
	for _, c := range cells {
		io.WriteString(h, c.Key())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ExecCell executes one cell in-process (the executor's unit of work).
func ExecCell(ctx context.Context, c CampaignCell) (stats.RunResult, error) {
	cfg, err := c.runConfig()
	if err != nil {
		return stats.RunResult{}, err
	}
	cfg.Ctx = ctx
	return Run(cfg)
}

// ProbeCell reports the cell's memoized result if the run cache — memory or
// the shared disk tier — already holds it, without simulating anything. This
// is the campaign fast-path: dreamd probes every planned cell up front and
// serves hits directly, so a fully warm campaign completes without a single
// cell occupying a worker slot.
func ProbeCell(c CampaignCell) (stats.RunResult, bool) {
	if !cacheEnabled.Load() {
		return stats.RunResult{}, false
	}
	cfg, err := c.runConfig()
	if err != nil {
		return stats.RunResult{}, false
	}
	cfg = cfg.normalized()
	if key, ok := cfg.runKey(); ok {
		if v, ok := runCache.PeekRun(key); ok {
			return relabel(v.(stats.RunResult), cfg), true
		}
		return stats.RunResult{}, false
	}
	if key, ok := cfg.mitKey(); ok {
		if v, ok := runCache.PeekMit(key); ok {
			return relabel(v.(stats.RunResult), cfg), true
		}
	}
	return stats.RunResult{}, false
}

// CellResult pairs one cell's outcome with its error (exactly one is set).
type CellResult struct {
	Res stats.RunResult
	Err error
}

// Executor turns a planned cell list into results. Implementations must
// return exactly one CellResult per cell, in cell order; execution order and
// placement are theirs to choose. The in-process executor runs cells through
// ParallelCtx; svc.CampaignClient fans them out across dreamd shards.
type Executor interface {
	ExecCells(ctx context.Context, cells []CampaignCell) []CellResult
}

// localExecutor runs cells in-process through ParallelCtx with the same
// cancel-on-first-error semantics grids have always had: after the
// first failure, the call's unclaimed cells come back as harness.ErrSkipped.
// A threshold sweep's wave spans every threshold (see slowdownSweep), so one
// failure can skip cells of other thresholds' rows too.
type localExecutor struct{}

func (localExecutor) ExecCells(ctx context.Context, cells []CampaignCell) []CellResult {
	results, errs, _ := ParallelCtx(ctx, len(cells), func(ctx context.Context, i int) (stats.RunResult, error) {
		return ExecCell(ctx, cells[i])
	})
	out := make([]CellResult, len(cells))
	for i := range out {
		out[i] = CellResult{Res: results[i], Err: errs[i]}
	}
	return out
}

// --- grid planners ------------------------------------------------------------

// PlanGridBase enumerates the unprotected-baseline cells of one slowdown
// grid, in workload order. Baseline cells carry no WindowScale: an
// unprotected run does not depend on it.
func PlanGridBase(wls []string, trh, cores int, accesses, seed uint64) []CampaignCell {
	cells := make([]CampaignCell, 0, len(wls))
	for _, wl := range wls {
		cells = append(cells, CampaignCell{
			Workload: wl, Scheme: Baseline.Name,
			TRH: trh, Cores: cores, Accesses: accesses, Seed: seed,
		})
	}
	return cells
}

// PlanGridSchemes enumerates the scheme cells of one slowdown grid — the
// (workload × scheme) cross product, workload-major, matching the order
// slowdown grids have always executed in. wsBits supplies each workload's
// baseline-derived WindowScale bit pattern, making every cell self-contained.
func PlanGridSchemes(wls []string, schemes []string, trh, cores int, accesses, seed uint64, wsBits func(wl string) uint64) []CampaignCell {
	cells := make([]CampaignCell, 0, len(wls)*len(schemes))
	for _, wl := range wls {
		for _, sc := range schemes {
			cells = append(cells, CampaignCell{
				Workload: wl, Scheme: sc,
				TRH: trh, Cores: cores, Accesses: accesses, Seed: seed,
				WindowScaleBits: wsBits(wl),
			})
		}
	}
	return cells
}

// The scheme registry — the namespace campaign cells resolve their scheme
// names through — lives in registry.go; the built-in roster is seeded by
// schemes.go at init.
