package exp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/tracker"
)

// TestGridSurvivesInjectedPanic poisons one simulation of a slowdown grid
// and checks the degradation contract end to end: the process survives, the
// grid renders with FAIL cells, the aggregate error names the failed run,
// and Parallel stays usable afterwards.
func TestGridSurvivesInjectedPanic(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	restore := harness.InjectFault(harness.FaultPanic, 1, 1)
	defer restore()

	o := Options{Quick: true, Workloads: []string{"bwaves", "lbm"}}
	wls := o.workloads()
	schemes := []Scheme{PARAWith(tracker.ModeNRR)}
	slow, _, err := slowdownGridN(o, wls, 2000, 2, schemes, 2_000)
	if err == nil {
		t.Fatal("poisoned grid returned nil error")
	}
	var se *harness.SimError
	if !errors.As(err, &se) {
		t.Fatalf("aggregate error carries no SimError: %v", err)
	}
	if se.Op != harness.OpPanic {
		t.Errorf("Op = %q, want %q", se.Op, harness.OpPanic)
	}
	if se.ID.Scheme == "" || se.ID.Workload == "" {
		t.Errorf("panic error lost its run identity: %+v", se.ID)
	}
	msg := err.Error()
	if !strings.Contains(msg, "seed 0xd6ea11") {
		t.Errorf("error does not name the seed: %s", msg)
	}
	if !strings.Contains(msg, "bwaves") && !strings.Contains(msg, "lbm") {
		t.Errorf("error does not name the workload: %s", msg)
	}

	var buf bytes.Buffer
	printSlowdownTable(&buf, "poisoned", wls, schemeNames(schemes), slow)
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("degraded grid rendered no FAIL cell:\n%s", buf.String())
	}

	// A recovered panic must leave no state behind that breaks later calls.
	vals, perr := Parallel(8, func(i int) (int, error) { return i * i, nil })
	if perr != nil {
		t.Fatalf("Parallel unusable after panic: %v", perr)
	}
	for i, v := range vals {
		if v != i*i {
			t.Errorf("vals[%d] = %d after panic recovery", i, v)
		}
	}
}

// TestWatchdogFiresOnInjectedStall arms a short wall-clock deadline and a
// stall fault that sleeps every progress callback on both attempts: the run
// must come back as a retryable watchdog SimError with a progress snapshot,
// not hang.
func TestWatchdogFiresOnInjectedStall(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	defer harness.SetOutput(harness.SetOutput(io.Discard))
	prev := SetRunTimeout(30 * time.Millisecond)
	defer SetRunTimeout(prev)
	restore := harness.InjectStall(harness.FaultStall, 1, 2, 5*time.Millisecond)
	defer restore()

	start := time.Now()
	_, err := Run(RunConfig{
		Workload: "bwaves", Cores: 2, AccessesPerCore: 200_000,
		TRH: 2000, Scheme: Baseline, Seed: 0x57a11,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled run returned nil error")
	}
	var se *harness.SimError
	if !errors.As(err, &se) || se.Op != harness.OpWatchdog {
		t.Fatalf("err = %v, want watchdog SimError", err)
	}
	if !se.Retryable {
		t.Error("watchdog trip not marked retryable")
	}
	if se.LastEvents == 0 {
		t.Error("watchdog error carries no progress snapshot")
	}
	// Both attempts stalled (times=2): the bounded retry ran and also
	// tripped, and the pair stayed within a few deadlines of wall clock.
	if got := harness.FiredCount(); got != 2 {
		t.Errorf("fired %d faults, want 2 (initial + retry)", got)
	}
	if elapsed > 5*time.Second {
		t.Errorf("watchdog took %v to convert a stall into an error", elapsed)
	}
}

// TestRetryRecoversFlaky injects one transient failure: the bounded retry
// must succeed, and — for a scheme-free baseline — the perturbed tiebreak
// seed must not change the measurement.
func TestRetryRecoversFlaky(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	defer harness.SetOutput(harness.SetOutput(io.Discard))
	cfg := RunConfig{
		Workload: "bwaves", Cores: 2, AccessesPerCore: 4_000,
		TRH: 2000, Scheme: Baseline, Seed: 0xf1a4,
	}

	restore := harness.InjectFault(harness.FaultFlaky, 1, 1)
	r, err := Run(cfg)
	restore()
	if err != nil {
		t.Fatalf("retry did not recover the flaky run: %v", err)
	}
	if got := harness.FiredCount(); got != 1 {
		t.Errorf("fired %d faults, want 1", got)
	}
	if r.SimTimeNS <= 0 {
		t.Errorf("recovered run has no simulated time: %+v", r)
	}

	// Recompute without any fault: the retried result must be bit-identical
	// (the tiebreak salt perturbs only mitigator RNGs, absent here).
	ResetCache()
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.CoreIPC) != len(r.CoreIPC) {
		t.Fatalf("core counts differ: %d vs %d", len(clean.CoreIPC), len(r.CoreIPC))
	}
	for i := range clean.CoreIPC {
		if clean.CoreIPC[i] != r.CoreIPC[i] {
			t.Errorf("core %d IPC differs after retry: %v vs %v", i, r.CoreIPC[i], clean.CoreIPC[i])
		}
	}
}

// TestParallelCtxPreCancelled checks that a cancelled context skips every
// job: nothing runs, every index is marked skipped, and skip markers do not
// masquerade as real failures in the aggregate.
func TestParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, errs, err := ParallelCtx(ctx, 8, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if n := ran.Load(); n != 0 {
		t.Errorf("%d jobs ran under a pre-cancelled context", n)
	}
	for i, e := range errs {
		if !errors.Is(e, harness.ErrSkipped) {
			t.Errorf("errs[%d] = %v, want ErrSkipped", i, e)
		}
	}
	if err != nil {
		t.Errorf("aggregate err = %v; skips alone must not join into a failure", err)
	}
}

// TestParallelCtxSkipsAfterFailure checks first-error cancellation: with far
// more jobs than workers, a failure at index 0 must leave later unclaimed
// indices skipped, and the aggregate must surface the cause, not the skips.
func TestParallelCtxSkipsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	const n = 256
	_, errs, err := ParallelCtx(context.Background(), n, func(_ context.Context, i int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("aggregate err = %v, want boom", err)
	}
	if errors.Is(err, harness.ErrSkipped) {
		t.Error("skip markers leaked into the aggregate error")
	}
	skipped := 0
	for _, e := range errs {
		if errors.Is(e, harness.ErrSkipped) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no unclaimed jobs were skipped after the failure")
	}
}

// TestParallelCtxRecoversJobPanic checks ParallelCtx's own recover: a panic
// in a job becomes that index's error instead of killing the process or
// leaving the call waiting on a job that never finishes.
func TestParallelCtxRecoversJobPanic(t *testing.T) {
	_, errs, err := ParallelCtx(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("aggregate err = %v, want the recovered panic", err)
	}
	var se *harness.SimError
	if !errors.As(errs[2], &se) || se.Op != harness.OpPanic {
		t.Errorf("errs[2] = %v, want an OpPanic SimError", errs[2])
	}
	if len(se.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
}
