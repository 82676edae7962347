package harness

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond,
	}
	for retry, w := range want {
		if got := b.Delay(retry); got != w {
			t.Errorf("Delay(%d) = %v, want %v", retry, got, w)
		}
	}
	if got := (Backoff{MaxAttempts: 3}).Delay(0); got != 0 {
		t.Errorf("zero BaseDelay Delay(0) = %v, want 0", got)
	}
	// Doubling past the longest Duration saturates there: with a 1 ms base
	// (dreamd's -retries 50 -retry-backoff 1ms), retry 43 still doubles and
	// every later retry waits the longest Duration, never zero.
	ms := Backoff{BaseDelay: time.Millisecond}
	if got, w := ms.Delay(43), time.Millisecond<<43; got != w {
		t.Errorf("Delay(43) = %v, want %v", got, w)
	}
	for _, retry := range []int{44, 49, 400} {
		if got := ms.Delay(retry); got != math.MaxInt64 {
			t.Errorf("Delay(%d) = %v, want the longest Duration", retry, got)
		}
	}
}

func TestBackoffSleepContextAware(t *testing.T) {
	b := Backoff{MaxAttempts: 2, BaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	err := b.Sleep(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("cancelled sleep took %v", el)
	}
	// A zero delay never consults the context at all.
	if err := (Backoff{}).Sleep(ctx, 0); err != nil {
		t.Errorf("zero-delay Sleep under cancelled ctx = %v, want nil", err)
	}
}

func TestRetryBoundedAndSalted(t *testing.T) {
	transient := &SimError{Op: OpInject, Retryable: true, Err: errors.New("flaky")}
	var attempts []int
	err := Retry(context.Background(), Backoff{MaxAttempts: 3}, func(a int) error {
		attempts = append(attempts, a)
		if a < 2 {
			return transient
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("Retry = %v, want recovery on the third attempt", err)
	}
	if len(attempts) != 3 || attempts[0] != 0 || attempts[1] != 1 || attempts[2] != 2 {
		t.Errorf("attempt numbers = %v, want [0 1 2]", attempts)
	}

	// Non-retryable errors never retry.
	hard := errors.New("deterministic")
	calls := 0
	err = Retry(context.Background(), Backoff{MaxAttempts: 5}, func(int) error {
		calls++
		return hard
	}, nil)
	if !errors.Is(err, hard) || calls != 1 {
		t.Errorf("err = %v after %d calls, want the hard error after 1", err, calls)
	}

	// Exhaustion returns the last transient error.
	calls = 0
	var notified int
	err = Retry(context.Background(), Backoff{MaxAttempts: 2}, func(int) error {
		calls++
		return transient
	}, func(attempt int, err error) { notified = attempt })
	if !errors.Is(err, transient) || calls != 2 || notified != 1 {
		t.Errorf("exhaustion: err=%v calls=%d notified=%d", err, calls, notified)
	}
}

func TestRetryAbortsWaitOnContext(t *testing.T) {
	transient := &SimError{Op: OpInject, Retryable: true, Err: errors.New("flaky")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Backoff{MaxAttempts: 4, BaseDelay: time.Hour}, func(int) error {
		calls++
		return transient
	}, nil)
	if calls != 1 {
		t.Errorf("f ran %d times under a cancelled context, want 1 (wait aborted)", calls)
	}
	if !errors.Is(err, transient) {
		t.Errorf("err = %v, want the transient failure preserved over ctx.Err()", err)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := NewBreaker(3, 30*time.Second)
	b.SetClock(now)

	allow := func() (int64, bool) {
		t.Helper()
		tok, _, ok := b.Allow()
		return tok, ok
	}

	// Three consecutive failures trip it; a success in between resets.
	tok, _ := allow()
	b.Report(tok, true)
	tok, _ = allow()
	b.Report(tok, false) // resets the streak
	for i := 0; i < 3; i++ {
		tok, ok := allow()
		if !ok {
			t.Fatalf("closed breaker shed request %d", i)
		}
		b.Report(tok, true)
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", st)
	}
	if b.Trips() != 1 {
		t.Errorf("trips = %d, want 1", b.Trips())
	}
	if _, after, ok := b.Allow(); ok || after <= 0 {
		t.Fatalf("open breaker admitted (ok=%v retryAfter=%v)", ok, after)
	}

	// After the window: exactly one probe at a time.
	clock = clock.Add(31 * time.Second)
	probe, ok := allow()
	if !ok {
		t.Fatal("breaker did not half-open after the window")
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	if _, _, ok := b.Allow(); ok {
		t.Fatal("second concurrent half-open probe admitted")
	}
	// Probe failure re-opens for a fresh window.
	b.Report(probe, true)
	if st := b.State(); st != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state=%v trips=%d after failed probe, want open/2", st, b.Trips())
	}
	clock = clock.Add(31 * time.Second)
	probe, _ = allow()
	b.Report(probe, false)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v after successful probe, want closed", st)
	}
	if _, ok := allow(); !ok {
		t.Error("recovered breaker shed a request")
	}
}

func TestBreakerStaleTokenAndDrop(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(2, 10*time.Second)
	b.SetClock(func() time.Time { return clock })

	stale, _, _ := b.Allow() // admitted while closed
	tok, _, _ := b.Allow()
	b.Report(tok, true)
	tok, _, _ = b.Allow()
	b.Report(tok, true) // trips
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip")
	}
	// A late success from before the trip must not close it.
	b.Report(stale, false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("stale success flipped the breaker to %v", st)
	}

	// A dropped half-open probe frees the probe slot instead of wedging it.
	clock = clock.Add(11 * time.Second)
	probe, _, ok := b.Allow()
	if !ok {
		t.Fatal("no probe admitted")
	}
	b.Drop(probe)
	if _, _, ok := b.Allow(); !ok {
		t.Error("probe slot still held after Drop")
	}
}
