package harness

import (
	"context"
	"math"
	"time"
)

// Backoff is a bounded retry policy: up to MaxAttempts total attempts with
// exponential delays between them. The zero value never retries;
// DefaultBackoff() reproduces the harness's historical
// retry-exactly-once-immediately behavior. Backoff is a value type — copy it
// freely.
type Backoff struct {
	// MaxAttempts caps total attempts including the first (<= 1 means no
	// retries).
	MaxAttempts int
	// BaseDelay is the wait before the first retry; each further retry
	// doubles it. Zero retries immediately.
	BaseDelay time.Duration
}

// DefaultBackoff is the policy the experiment harness has always applied to
// transient simulation failures: one immediate retry, no delay.
func DefaultBackoff() Backoff { return Backoff{MaxAttempts: 2} }

// Attempts reports the effective total-attempt bound (at least 1).
func (b Backoff) Attempts() int {
	if b.MaxAttempts < 1 {
		return 1
	}
	return b.MaxAttempts
}

// Delay reports the wait before retry number `retry` (0-based: retry 0
// follows the first failed attempt). Doubling saturates at the longest
// time.Duration rather than overflowing, so a large retry count never
// wraps to a short or zero wait.
func (b Backoff) Delay(retry int) time.Duration {
	d := b.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 0; i < retry; i++ {
		if d > math.MaxInt64/2 {
			return math.MaxInt64
		}
		d *= 2
	}
	return d
}

// Sleep waits the backoff before retry number `retry`, returning early with
// ctx.Err() if the context ends first. A zero delay returns nil
// immediately, even under a cancelled context, so a no-delay policy behaves
// exactly like the historical immediate retry.
func (b Backoff) Sleep(ctx context.Context, retry int) error {
	d := b.Delay(retry)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry runs f under the policy: f(0) always executes; while the returned
// error IsRetryable and attempts remain, Retry sleeps the backoff
// (aborting the wait — but keeping the last real error — if ctx ends) and
// runs f again with the next attempt number, so callers can salt retries.
// The optional onRetry hook observes each scheduled retry before its sleep.
func Retry(ctx context.Context, b Backoff, f func(attempt int) error, onRetry func(attempt int, err error)) error {
	attempts := b.Attempts()
	var err error
	for attempt := 0; ; attempt++ {
		err = f(attempt)
		if err == nil || !IsRetryable(err) || attempt+1 >= attempts {
			return err
		}
		if onRetry != nil {
			onRetry(attempt+1, err)
		}
		if serr := b.Sleep(ctx, attempt); serr != nil {
			// The caller's context ended the wait; the transient failure is
			// still the informative error.
			return err
		}
	}
}
