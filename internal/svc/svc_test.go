package svc

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/stats"
)

// startService builds and starts a Service with fast test defaults, and
// registers a leak-checked shutdown.
func startService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestDoRunsAndCounts(t *testing.T) {
	s := startService(t, Options{Workers: 2})
	val, _, dedup, err := s.Do(context.Background(), ClassSimulate, "k1", 0,
		func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil || dedup {
		t.Fatalf("Do = (%v, dedup=%v), want clean first run", err, dedup)
	}
	if val.(int) != 42 {
		t.Errorf("val = %v", val)
	}
	m := s.Snapshot()
	if m.Accepted != 1 || m.Completed != 1 || m.Failed != 0 {
		t.Errorf("counters = %+v", m)
	}
}

func TestQueueFullRejectsWith429Semantics(t *testing.T) {
	s := startService(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	running := make(chan struct{}, 2)
	block := func(ctx context.Context) (any, error) {
		running <- struct{}{}
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	do := func(i int) {
		defer wg.Done()
		_, _, _, errs[i] = s.Do(context.Background(), ClassSimulate, "job-"+string(rune('a'+i)), 0, block)
	}
	// Sequence the fill: job-a must be running (queue empty again) before
	// job-b is enqueued, so job-b deterministically occupies the one slot
	// and the third admission deterministically finds the queue at depth.
	wg.Add(1)
	go do(0)
	<-running
	wg.Add(1)
	go do(1)
	waitFor(t, func() bool { return s.Snapshot().Accepted == 2 && s.Snapshot().QueueDepth == 1 })
	_, _, _, err := s.Do(context.Background(), ClassSimulate, "job-c", 0, block)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Do = %v, want ErrQueueFull", err)
	}
	close(release)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("admitted jobs failed: %v %v", errs[0], errs[1])
	}
	if m := s.Snapshot(); m.RejectedQueue != 1 {
		t.Errorf("RejectedQueue = %d, want 1", m.RejectedQueue)
	}
}

// TestCampaignCellAdmissionWaits pins the one admission pipeline's two
// modes: with the worker and the queue both held, an interactive Do is
// refused with ErrQueueFull while a campaign cell waits for a slot. A
// waiting cell whose ctx ends leaves neither a flight nor a rejection
// behind and releases the cell that joined it, and a waiting cell runs once
// the queue drains.
func TestCampaignCellAdmissionWaits(t *testing.T) {
	s := startService(t, Options{Workers: 1, QueueDepth: 1})
	// On an early failure, free the held worker and every cell still in
	// admission, so the cleanup's Shutdown can drain.
	tctx, tcancel := context.WithCancel(context.Background())
	defer tcancel()
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	running := make(chan struct{}, 2)
	block := func(ctx context.Context) (any, error) {
		running <- struct{}{}
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, key := range []string{"hold-worker", "hold-queue"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, errs[i] = s.Do(context.Background(), ClassSimulate, key, 0, block)
		}()
		if i == 0 {
			<-running // the worker holds the first, so the second fills the queue
		}
	}
	waitFor(t, func() bool { m := s.Snapshot(); return m.Accepted == 2 && m.QueueDepth == 1 })

	cell := exp.CampaignCell{Workload: "xz", Scheme: "base", TRH: 2000, Cores: 1, Accesses: 1000, Seed: 7}
	ctx, cancel := context.WithCancel(tctx)
	waited := make(chan error, 1)
	go func() {
		_, err := s.cellDo(ctx, cell)
		waited <- err
	}()
	waitFor(t, func() bool { return s.InflightCount() == 3 })
	joined := make(chan error, 1)
	go func() {
		_, err := s.cellDo(tctx, cell)
		joined <- err
	}()
	waitFor(t, func() bool { return s.Snapshot().Deduped == 1 })
	if _, _, _, err := s.Do(context.Background(), ClassSimulate, "refused", 0, block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on a full queue = %v, want ErrQueueFull", err)
	}
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting cell after cancel = %v, want context.Canceled", err)
	}
	select {
	case err := <-joined:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("joiner of the dropped cell = %v, want its context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner of the dropped cell still waiting")
	}
	if n, m := s.InflightCount(), s.Snapshot(); n != 2 || m.RejectedQueue != 1 {
		t.Errorf("after the cancelled wait: %d in flight, %d rejected; want 2 and 1", n, m.RejectedQueue)
	}

	type outcome struct {
		res stats.RunResult
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := s.cellDo(tctx, cell)
		ran <- outcome{res, err}
	}()
	waitFor(t, func() bool { return s.InflightCount() == 3 })
	releaseOnce()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("blocking requests failed: %v %v", errs[0], errs[1])
	}
	if oc := <-ran; oc.err != nil || oc.res.SimTimeNS <= 0 {
		t.Fatalf("waiting cell = (%v ns simulated, %v), want a result", oc.res.SimTimeNS, oc.err)
	}
	if m := s.Snapshot(); m.Accepted != 3 || m.RejectedQueue != 1 {
		t.Errorf("accepted %d, rejected %d; want 3 and 1", m.Accepted, m.RejectedQueue)
	}
}

func TestSingleflightDedup(t *testing.T) {
	s := startService(t, Options{Workers: 2})
	var runs atomic.Int64
	gate := make(chan struct{})
	slow := func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-gate
		return "shared", nil
	}
	const n = 5
	var wg sync.WaitGroup
	vals := make([]any, n)
	dedups := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, dedups[i], _ = s.Do(context.Background(), ClassSimulate, "same-key", 0, slow)
		}(i)
	}
	waitFor(t, func() bool { return runs.Load() == 1 && s.Snapshot().Deduped == n-1 })
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("run executed %d times, want 1", got)
	}
	var shared int
	for i := range vals {
		if vals[i] == "shared" {
			shared++
		}
	}
	if shared != n {
		t.Errorf("%d/%d callers saw the shared result", shared, n)
	}
}

func TestPanicIsolatedIntoStructuredError(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	_, _, _, err := s.Do(context.Background(), ClassSimulate, "boom", 0,
		func(ctx context.Context) (any, error) { panic("kaboom") })
	var se *harness.SimError
	if !errors.As(err, &se) || se.Op != harness.OpPanic {
		t.Fatalf("err = %v, want SimError{Op: panic}", err)
	}
	if len(se.Stack) == 0 {
		t.Error("panic error lost its stack")
	}
	// The worker survived the panic and keeps serving.
	val, _, _, err := s.Do(context.Background(), ClassSimulate, "after", 0,
		func(ctx context.Context) (any, error) { return "alive", nil })
	if err != nil || val != "alive" {
		t.Fatalf("post-panic Do = (%v, %v)", val, err)
	}
	if m := s.Snapshot(); m.Panics != 1 || m.Failed != 1 || m.Completed != 1 {
		t.Errorf("counters = %+v", m)
	}
}

func TestBreakerTripsOnWatchdogFailuresAndRecovers(t *testing.T) {
	s := startService(t, Options{Workers: 1, BreakerThreshold: 2, BreakerOpenFor: 80 * time.Millisecond})
	stall := func(ctx context.Context) (any, error) {
		return nil, &harness.SimError{Op: harness.OpWatchdog, Retryable: true,
			Err: errors.New("no forward progress")}
	}
	for i := 0; i < 2; i++ {
		_, _, _, err := s.Do(context.Background(), ClassAttack, "stall-"+string(rune('a'+i)), 0, stall)
		if !harness.IsRetryable(err) {
			t.Fatalf("watchdog failure %d = %v", i, err)
		}
	}
	var shed *ShedError
	_, _, _, err := s.Do(context.Background(), ClassAttack, "stall-c", 0, stall)
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
		t.Fatalf("post-trip Do = %v, want ShedError with RetryAfter", err)
	}
	// Another class is unaffected.
	if _, _, _, err := s.Do(context.Background(), ClassSimulate, "fine", 0,
		func(ctx context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatalf("sibling class shed: %v", err)
	}
	// After the window, the half-open probe succeeds and the class recovers.
	time.Sleep(100 * time.Millisecond)
	if _, _, _, err := s.Do(context.Background(), ClassAttack, "probe", 0,
		func(ctx context.Context) (any, error) { return "ok", nil }); err != nil {
		t.Fatalf("half-open probe = %v", err)
	}
	if _, _, _, err := s.Do(context.Background(), ClassAttack, "recovered", 0,
		func(ctx context.Context) (any, error) { return "ok", nil }); err != nil {
		t.Fatalf("recovered class = %v", err)
	}
	if m := s.Snapshot(); m.Breakers[ClassAttack].State != "closed" || m.Breakers[ClassAttack].Trips != 1 {
		t.Errorf("breaker = %+v", m.Breakers[ClassAttack])
	}
}

func TestRequestDeadlineEnforced(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	start := time.Now()
	_, _, _, err := s.Do(context.Background(), ClassSimulate, "slow", 30*time.Millisecond,
		func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline took %v to fire", el)
	}
}

func TestAbandonedFlightIsCancelled(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	entered := make(chan struct{})
	finished := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, _, _, err := s.Do(ctx, ClassSimulate, "abandoned", 0,
			func(fctx context.Context) (any, error) {
				close(entered)
				<-fctx.Done()
				finished <- fctx.Err()
				return nil, fctx.Err()
			})
		_ = err
	}()
	<-entered
	cancel() // the only waiter leaves; the flight must be cancelled
	select {
	case err := <-finished:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("flight ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned flight kept running")
	}
	// Abandoned work is neither journaled nor counted as an outcome.
	waitFor(t, func() bool {
		m := s.Snapshot()
		return m.Completed == 0 && m.Failed == 0
	})
}

func TestShutdownDrainsThenRejects(t *testing.T) {
	s, err := New(Options{Workers: 1, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	slow := make(chan struct{})
	var inFlightErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, inFlightErr = s.Do(context.Background(), ClassSimulate, "inflight", 0,
			func(ctx context.Context) (any, error) { <-slow; return "drained", nil })
	}()
	waitFor(t, func() bool { return s.Snapshot().Accepted == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return !s.Ready() })

	// New admissions are refused while draining.
	if _, _, _, err := s.Do(context.Background(), ClassSimulate, "late", 0,
		func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do during drain = %v, want ErrDraining", err)
	}
	// The in-flight request still completes.
	close(slow)
	wg.Wait()
	if inFlightErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", inFlightErr)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
}

func TestShutdownForceCancelsAfterBudget(t *testing.T) {
	s, err := New(Options{Workers: 1, DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Respects ctx but never finishes on its own: only the force-cancel
		// can unblock it.
		s.Do(context.Background(), ClassSimulate, "stuck", time.Hour,
			func(ctx context.Context) (any, error) { <-ctx.Done(); return nil, ctx.Err() })
	}()
	waitFor(t, func() bool { return s.Snapshot().Accepted == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown = nil, want drain-budget error for stuck work")
	}
	wg.Wait() // the stuck request was cancelled, not leaked
}

func TestJournalRecordsOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "svc.journal.jsonl")
	s := startService(t, Options{Workers: 1, JournalPath: path})
	s.Do(context.Background(), ClassSimulate, "ok-req", 0,
		func(ctx context.Context) (any, error) { return 1, nil })
	s.Do(context.Background(), ClassSimulate, "bad-req", 0,
		func(ctx context.Context) (any, error) { return nil, errors.New("sim exploded") })
	j, err := harness.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Completed("ok-req") {
		t.Error("successful request not journaled as completed")
	}
	if failed := j.Failed(); len(failed) != 1 || failed[0] != "bad-req" {
		t.Errorf("Failed() = %v", failed)
	}
}

func TestNoGoroutineLeakAcrossLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Options{Workers: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Do(context.Background(), ClassSimulate, "leak-"+string(rune('a'+i)), 0,
				func(ctx context.Context) (any, error) { return i, nil })
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// waitFor polls cond for up to 5s; the generous budget keeps loaded CI
// hosts from flaking while failures still surface quickly.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
