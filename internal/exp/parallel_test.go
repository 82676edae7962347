package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestParallelCtxCancelRaceDeterministic hammers the window between batch
// submission and worker pickup: a context cancelled in that window must
// report ErrSkipped for every job that never produced a result, never a
// raced "real" ctx-cancellation failure, and the aggregate join must hold
// only genuine causes (here: none). Run under -race.
func TestParallelCtxCancelRaceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for round := 0; round < 200; round++ {
		const n = 16
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel at a randomized point: sometimes before submission,
		// sometimes mid-batch, sometimes after a few jobs have run.
		delay := time.Duration(rng.Intn(200)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		var started atomic.Int64
		results, errs, err := ParallelCtx(ctx, n, func(jctx context.Context, i int) (int, error) {
			started.Add(1)
			// Mimic exp.Run's early bail-out: a claimed job observes the
			// cancelled context and returns a wrapped ctx error.
			if cerr := jctx.Err(); cerr != nil {
				return 0, fmt.Errorf("job saw cancellation: %w", cerr)
			}
			return i + 1, nil
		})
		cancel()
		if err != nil {
			t.Fatalf("round %d: aggregate error %v, want nil (cancellation is fallout, not a cause)", round, err)
		}
		for i, e := range errs {
			switch {
			case e == nil:
				if results[i] != i+1 {
					t.Fatalf("round %d: job %d finished with result %d", round, i, results[i])
				}
			case errors.Is(e, harness.ErrSkipped):
				// fine: skipped deterministically
			default:
				t.Fatalf("round %d: job %d reported %v, want nil or ErrSkipped", round, i, e)
			}
		}
	}
}

// TestParallelCtxRealFailureStillReported guards the other side of the race
// fix: a genuine job failure (not caused by the batch context) must stay in
// the aggregate join even though the batch context is cancelled as fallout.
func TestParallelCtxRealFailureStillReported(t *testing.T) {
	boom := errors.New("deterministic failure")
	_, errs, err := ParallelCtx(context.Background(), 8, func(jctx context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		// Slow siblings observe the fallout cancellation.
		select {
		case <-jctx.Done():
			return 0, fmt.Errorf("aborted: %w", jctx.Err())
		case <-time.After(50 * time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("aggregate = %v, want the real failure", err)
	}
	for i, e := range errs {
		if i == 3 {
			if !errors.Is(e, boom) {
				t.Errorf("job 3 error = %v, want the cause", e)
			}
			continue
		}
		if e != nil && !errors.Is(e, harness.ErrSkipped) {
			t.Errorf("job %d error = %v, want nil or ErrSkipped (ctx fallout must not join)", i, e)
		}
	}
	if errors.Is(err, context.Canceled) {
		t.Error("aggregate join contains ctx-cancellation fallout")
	}
}

// TestParallelCtxConcurrency pins the fan-out's width: the caller plus
// GOMAXPROCS goroutines, so GOMAXPROCS+1 jobs run at once (capped by n).
// Every job holds until that many are running, or until the deadline, so a
// narrower fan-out shows as a lower peak; a wider one shows as a higher peak
// when an extra goroutine claims a job before the first wave is released.
func TestParallelCtxConcurrency(t *testing.T) {
	const n = 16
	want := int32(min(n, runtime.GOMAXPROCS(0)+1))
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reached := make(chan struct{})
	var once sync.Once
	var running, peak atomic.Int32
	_, _, err := ParallelCtx(context.Background(), n, func(context.Context, int) (int, error) {
		now := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		if now == want {
			once.Do(func() { close(reached) })
		}
		select {
		case <-reached:
		case <-deadline.Done():
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != want {
		t.Errorf("peak concurrency %d, want %d (GOMAXPROCS %d + the caller, capped at %d jobs)",
			got, want, runtime.GOMAXPROCS(0), n)
	}
}
