// Package svc is the robust request lifecycle behind cmd/dreamd: a bounded
// worker pool fed by a depth-limited admission queue, per-request deadlines,
// singleflight deduplication of identical in-flight requests, a per-class
// circuit breaker over watchdog-style failures, panic isolation, completion
// journaling, and graceful drain. The HTTP surface lives in http.go; this
// file owns admission and execution.
//
// The simulation work itself goes through the dream facade, so every
// robustness feature below composes with the facade's own: the run cache's
// singleflight and disk tier, exp's bounded salted retries, and the
// wall-clock watchdog.
package svc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	dream "repro"
	"repro/internal/exp"
	"repro/internal/harness"
)

// Request classes; each gets its own circuit breaker so a livelocking
// attack pattern cannot shed unrelated simulate traffic.
const (
	ClassSimulate = "simulate"
	ClassCompare  = "compare"
	ClassAttack   = "attack"
	// ClassCampaign covers /v1/campaign cell executions: a livelocking cell
	// trips its own breaker without shedding interactive simulate traffic.
	ClassCampaign = "campaign"
)

// Options configures a Service. Zero fields take the documented defaults.
type Options struct {
	// Workers sizes the execution pool (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull (HTTP 429) rather than buffering unboundedly (default 8).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends none
	// (default 2m); MaxTimeout caps client-supplied deadlines (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BreakerThreshold consecutive watchdog-class failures of one request
	// class trip its breaker open for BreakerOpenFor (defaults 3, 15s).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// Retry is installed process-wide (dream.SetRetryPolicy) at Start; the
	// zero value keeps the current policy.
	Retry harness.Backoff
	// SimTimeout arms the per-simulation watchdog at Start (0 keeps the
	// current setting).
	SimTimeout time.Duration
	// CacheDir attaches the persistent result cache at Start; an unusable
	// directory degrades to compute-only with a notice, never an error.
	CacheDir      string
	CacheMaxBytes int64
	// JournalPath, when non-empty, records request completions to a
	// crash-durable JSONL journal. It must NOT live inside CacheDir — the
	// disk cache's sweep deletes foreign files.
	JournalPath string
	// DrainTimeout bounds Shutdown's wait for in-flight work before
	// force-cancelling (default 30s).
	DrainTimeout time.Duration
	// EnableFaults exposes the test-only POST /debug/fault endpoint.
	EnableFaults bool

	// CampaignDir, when non-empty, is the shared lease-ledger directory for
	// /v1/campaign: every shard of one campaign must point at the same
	// directory (and share CacheDir) to work-steal cells. Empty runs
	// campaigns standalone — all cells execute locally, no ledger.
	CampaignDir string
	// LeaseTTL is how long a claimed cell stays unstealable; a crashed shard
	// loses at most its leased cells for this long (default 90s).
	LeaseTTL time.Duration
	// ShardID identifies this process in lease records; two live shards must
	// never share one (default "host-pid").
	ShardID string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerOpenFor <= 0 {
		o.BreakerOpenFor = 15 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 90 * time.Second
	}
	if o.ShardID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "shard"
		}
		o.ShardID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return o
}

// Admission errors, mapped onto HTTP statuses by http.go.
var (
	// ErrQueueFull is a 429: the admission queue is at depth.
	ErrQueueFull = errors.New("svc: admission queue full")
	// ErrDraining is a 503: the server stopped admitting for shutdown.
	ErrDraining = errors.New("svc: draining for shutdown")
)

// ShedError is a 503 from an open circuit breaker, carrying the suggested
// retry delay.
type ShedError struct {
	Class      string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("svc: %s breaker open, retry after %v", e.Class, e.RetryAfter)
}

// flight is one deduplicated unit of work: the first request for a key
// becomes the leader and enqueues; identical requests arriving while it is
// in flight join as waiters and share the outcome. The flight's context is
// derived from the server (not any one client) so a leader disconnecting
// never aborts work its followers still want; when the last waiter leaves,
// the flight is cancelled.
type flight struct {
	key     string
	class   string
	token   int64 // breaker admission token
	ctx     context.Context
	cancel  context.CancelFunc
	run     func(ctx context.Context) (any, error)
	done    chan struct{}
	val     any
	err     error
	elapsed time.Duration
	// waiters counts clients awaiting the outcome; 0 after a decrement
	// means abandoned — the flight is cancelled and no longer joinable.
	waiters atomic.Int64
}

// Service owns the request lifecycle. Construct with New, then Start;
// Shutdown drains gracefully.
type Service struct {
	opts    Options
	journal *harness.Journal

	queue    chan *flight
	baseCtx  context.Context
	baseStop context.CancelFunc

	draining atomic.Bool
	admitWG  sync.WaitGroup // callers inside admission (Do's enqueue window)
	workerWG sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]*flight
	breakers map[string]*harness.Breaker
	started  bool
	closed   bool

	// Counters surfaced by /metrics.
	accepted        atomic.Int64
	deduped         atomic.Int64
	rejectedQueue   atomic.Int64
	rejectedBreaker atomic.Int64
	rejectedDrain   atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	panics          atomic.Int64

	// Campaign counters (see campaign.go).
	campaigns        atomic.Int64
	campaignsActive  atomic.Int64
	cellsPlanned     atomic.Int64
	cellsLeased      atomic.Int64
	cellsStolen      atomic.Int64
	cellsCompleted   atomic.Int64
	cellsFailed      atomic.Int64
	cellsCacheServed atomic.Int64
	cellsPeerServed  atomic.Int64
	cellBusyNS       atomic.Int64
}

// New builds a Service (not yet admitting; call Start).
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	s := &Service{
		opts:     opts,
		queue:    make(chan *flight, opts.QueueDepth),
		inflight: make(map[string]*flight),
		breakers: make(map[string]*harness.Breaker),
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	for _, class := range []string{ClassSimulate, ClassCompare, ClassAttack, ClassCampaign} {
		s.breakers[class] = harness.NewBreaker(opts.BreakerThreshold, opts.BreakerOpenFor)
	}
	if opts.JournalPath != "" {
		j, err := harness.OpenJournal(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("svc: %w", err)
		}
		s.journal = j
	}
	return s, nil
}

// Journal exposes the completion journal (nil when journaling is off).
func (s *Service) Journal() *harness.Journal { return s.journal }

// Start applies the process-wide simulation settings and launches the
// worker pool. Unusable cache directories degrade to compute-only with a
// once-per-directory notice — the service still comes up.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()

	if (s.opts.Retry != harness.Backoff{}) {
		dream.SetRetryPolicy(s.opts.Retry)
	}
	if s.opts.SimTimeout > 0 {
		dream.SetSimTimeout(s.opts.SimTimeout)
	}
	if s.opts.CacheDir != "" {
		if err := dream.SetCacheDir(s.opts.CacheDir, s.opts.CacheMaxBytes); err != nil {
			harness.Noticef("svc-cache-dir-"+s.opts.CacheDir,
				"dreamd: persistent cache disabled, serving compute-only: %v", err)
		} else if s.opts.CampaignDir != "" {
			// Sharded mode: a crashed sibling's orphaned disk-cache entry lock
			// must not stall a stolen cell longer than its lease — duplicated
			// fills are the campaign protocol's safe fallback.
			exp.SetDiskCacheLockTuning(s.opts.LeaseTTL, 2*s.opts.LeaseTTL)
		}
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
}

// Ready reports whether the service is admitting requests.
func (s *Service) Ready() bool {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	return started && !s.draining.Load()
}

// Do runs one request through the full lifecycle: admission (drain check,
// per-class breaker, queue depth), singleflight dedup, bounded execution
// with a deadline, outcome reporting, and journaling. The returned dedup
// flag reports whether this caller shared another request's flight.
func (s *Service) Do(ctx context.Context, class, key string, timeout time.Duration,
	run func(ctx context.Context) (any, error)) (val any, elapsed time.Duration, dedup bool, err error) {
	fl, dedup, err := s.admit(ctx, class, key, timeout, false, run)
	if err != nil {
		return nil, 0, false, err
	}
	val, elapsed, err = s.await(ctx, fl)
	return val, elapsed, dedup, err
}

// admit performs the admission pipeline (drain check → dedup → breaker →
// queue depth) and returns the flight to await. timeout is clamped to
// DefaultTimeout (when <= 0) and MaxTimeout. On a full queue an interactive
// caller (wait false) gets ErrQueueFull; a campaign cell (wait true) blocks
// for a slot until ctx ends, and then leaves no trace: its breaker token is
// dropped and its flight removed.
//
// admitWG brackets only this window — not the wait for the outcome — so
// Shutdown's admitWG.Wait() returns as soon as no caller can reach the
// queue, letting the drain deadline and force-cancel actually fire on stuck
// work. The order matters: Add first, then the draining check — Shutdown
// sets draining and then waits, so an admission that slipped past the check
// is inside the group and its enqueue is awaited before the queue is sealed.
func (s *Service) admit(ctx context.Context, class, key string, timeout time.Duration, wait bool,
	run func(ctx context.Context) (any, error)) (*flight, bool, error) {
	s.admitWG.Add(1)
	defer s.admitWG.Done()
	if s.draining.Load() {
		s.rejectedDrain.Add(1)
		return nil, false, ErrDraining
	}

	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}

	s.mu.Lock()
	if fl, ok := s.inflight[key]; ok && joinFlight(fl) {
		s.mu.Unlock()
		s.deduped.Add(1)
		return fl, true, nil
	}
	br := s.breakers[class]
	if br == nil {
		br = harness.NewBreaker(s.opts.BreakerThreshold, s.opts.BreakerOpenFor)
		s.breakers[class] = br
	}
	token, retryAfter, ok := br.Allow()
	if !ok {
		s.mu.Unlock()
		s.rejectedBreaker.Add(1)
		return nil, false, &ShedError{Class: class, RetryAfter: retryAfter}
	}
	fctx, fcancel := context.WithTimeout(s.baseCtx, timeout)
	fl := &flight{
		key: key, class: class, token: token,
		ctx: fctx, cancel: fcancel,
		run: run, done: make(chan struct{}),
	}
	fl.waiters.Store(1)
	s.inflight[key] = fl
	s.mu.Unlock()

	// Try the non-blocking send first. One select over the send and an
	// already-closed channel (an ended ctx, or a stand-in for "don't wait")
	// picks a ready case at random, so it could refuse a request while the
	// queue still has room.
	var err error
	select {
	case s.queue <- fl:
	default:
		err = ErrQueueFull
		if !wait {
			s.rejectedQueue.Add(1)
			break
		}
		// Shutdown cannot close the queue under this blocked send: it waits
		// on admitWG first.
		select {
		case s.queue <- fl:
			err = nil
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		// Undo the admission. The breaker gets a Drop, not a failure — a
		// full queue says nothing about the class's health, and a dropped
		// half-open probe must free the probe slot. Callers that joined the
		// flight in the meantime get the same error instead of waiting on a
		// run that never starts.
		s.mu.Lock()
		if s.inflight[key] == fl {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		br.Drop(token)
		fcancel()
		fl.err = err
		close(fl.done)
		return nil, false, err
	}
	s.accepted.Add(1)
	return fl, false, nil
}

// joinFlight registers interest in an in-flight request. It fails when the
// flight was abandoned (waiters already 0) — the caller then starts a fresh
// flight instead of waiting on a doomed one. Caller holds s.mu, so no new
// waiter can race the increment with the map delete.
func joinFlight(fl *flight) bool {
	for {
		w := fl.waiters.Load()
		if w <= 0 {
			return false
		}
		if fl.waiters.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// await blocks until the flight resolves or the caller's own context ends.
// A departing caller decrements the waiter count; the last one out cancels
// the flight so abandoned work stops consuming a worker.
func (s *Service) await(ctx context.Context, fl *flight) (any, time.Duration, error) {
	select {
	case <-fl.done:
		return fl.val, fl.elapsed, fl.err
	case <-ctx.Done():
		if fl.waiters.Add(-1) == 0 {
			fl.cancel()
		}
		return nil, 0, ctx.Err()
	}
}

// worker executes flights until the queue closes (Shutdown seals it after
// admission stops, so range-drain is the graceful path).
func (s *Service) worker() {
	defer s.workerWG.Done()
	for fl := range s.queue {
		s.exec(fl)
	}
}

// exec runs one flight with panic isolation, reports the outcome to the
// class breaker, journals the completion, and releases the waiters.
func (s *Service) exec(fl *flight) {
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				fl.err = &harness.SimError{
					Op:    harness.OpPanic,
					Err:   fmt.Errorf("request %s: panic: %v", fl.key, p),
					Stack: debug.Stack(),
				}
			}
		}()
		fl.val, fl.err = fl.run(fl.ctx)
	}()
	// Panics count whether isolated here or already recovered into a
	// structured error deeper in the stack (exp.Run recovers its own).
	var se *harness.SimError
	if errors.As(fl.err, &se) && se.Op == harness.OpPanic {
		s.panics.Add(1)
	}
	fl.elapsed = time.Since(start)
	fl.cancel()

	s.mu.Lock()
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	br := s.breakers[fl.class]
	s.mu.Unlock()

	// An error wrapping context.Canceled can only come from a pre-execution
	// cancellation (the flight's own cancel runs after run returns): every
	// waiter left, or Shutdown force-cancelled. A deadline trip surfaces as
	// DeadlineExceeded and is a real (breaker-visible) outcome.
	abandoned := fl.err != nil && errors.Is(fl.err, context.Canceled)
	if abandoned {
		// Every waiter left (or Shutdown force-cancelled): no client sees
		// this outcome and it says nothing about the class's health.
		br.Drop(fl.token)
	} else {
		br.Report(fl.token, breakerFailure(fl.err))
		if fl.err == nil {
			s.completed.Add(1)
		} else {
			s.failed.Add(1)
		}
		if s.journal != nil {
			e := harness.Entry{ID: fl.key, Status: harness.StatusOK,
				ElapsedMS:  fl.elapsed.Milliseconds(),
				FinishedAt: time.Now().UTC().Format(time.RFC3339)}
			if fl.err != nil {
				e.Status, e.Error = harness.StatusFail, fl.err.Error()
			}
			if jerr := s.journal.Record(e); jerr != nil {
				harness.Noticef("svc-journal", "dreamd: journaling disabled for this entry: %v", jerr)
			}
		}
	}
	close(fl.done)
}

// breakerFailure classifies an outcome for the circuit breaker: only
// watchdog-style failures count — a tripped simulation watchdog or a
// request that ran out its deadline. Validation errors, deterministic sim
// failures, and panics are real errors for the client but not evidence the
// class is livelocking, so they don't walk the breaker toward open.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var se *harness.SimError
	return errors.As(err, &se) && se.Op == harness.OpWatchdog
}

// Shutdown drains gracefully: stop admitting (new requests get
// ErrDraining), wait out in-progress admissions, seal the queue so workers
// drain it and exit, and wait up to ctx's deadline (or DrainTimeout,
// whichever is sooner) before force-cancelling whatever is still running.
// Safe to call once; later calls return immediately.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed || !s.started {
		s.closed = true
		s.mu.Unlock()
		s.draining.Store(true)
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.draining.Store(true)
	s.admitWG.Wait() // after this, no sender can reach the queue
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.opts.DrainTimeout)
	defer timer.Stop()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	case <-timer.C:
		err = fmt.Errorf("svc: drain exceeded %v", s.opts.DrainTimeout)
	}
	if err != nil {
		// Force: cancel every flight's base context; the simulations abort
		// at their next progress check and the workers drain out.
		s.baseStop()
		<-done
	}
	if s.journal != nil {
		if jerr := s.journal.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// InflightCount reports distinct in-flight (queued or executing) flights —
// the /readyz in-flight gauge.
func (s *Service) InflightCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Metrics snapshots every service counter for /metrics and tests.
type Metrics struct {
	QueueDepth, QueueCap                          int
	InFlight                                      int
	Accepted, Deduped                             int64
	RejectedQueue, RejectedBreaker, RejectedDrain int64
	Completed, Failed, Panics                     int64
	Retries                                       uint64
	Breakers                                      map[string]BreakerMetrics
	JournalEntries                                int
	Campaign                                      CampaignMetrics
}

// CampaignMetrics snapshots the /v1/campaign counters. CellBusy is summed
// wall-clock spent executing cells on this shard; CellsCompleted/CellBusy is
// the shard's campaign throughput.
type CampaignMetrics struct {
	Campaigns, Active int64
	CellsPlanned      int64
	CellsLeased       int64
	CellsStolen       int64
	CellsCompleted    int64
	CellsFailed       int64
	CellsCacheServed  int64
	CellsPeerServed   int64
	CellBusy          time.Duration
}

// BreakerMetrics is one class breaker's state for /metrics.
type BreakerMetrics struct {
	State string
	Trips int64
}

// Snapshot gathers the current Metrics.
func (s *Service) Snapshot() Metrics {
	m := Metrics{
		QueueDepth:      len(s.queue),
		QueueCap:        s.opts.QueueDepth,
		InFlight:        s.InflightCount(),
		Accepted:        s.accepted.Load(),
		Deduped:         s.deduped.Load(),
		RejectedQueue:   s.rejectedQueue.Load(),
		RejectedBreaker: s.rejectedBreaker.Load(),
		RejectedDrain:   s.rejectedDrain.Load(),
		Completed:       s.completed.Load(),
		Failed:          s.failed.Load(),
		Panics:          s.panics.Load(),
		Retries:         exp.Retries(),
		Breakers:        make(map[string]BreakerMetrics),
		Campaign: CampaignMetrics{
			Campaigns:        s.campaigns.Load(),
			Active:           s.campaignsActive.Load(),
			CellsPlanned:     s.cellsPlanned.Load(),
			CellsLeased:      s.cellsLeased.Load(),
			CellsStolen:      s.cellsStolen.Load(),
			CellsCompleted:   s.cellsCompleted.Load(),
			CellsFailed:      s.cellsFailed.Load(),
			CellsCacheServed: s.cellsCacheServed.Load(),
			CellsPeerServed:  s.cellsPeerServed.Load(),
			CellBusy:         time.Duration(s.cellBusyNS.Load()),
		},
	}
	s.mu.Lock()
	for class, br := range s.breakers {
		m.Breakers[class] = BreakerMetrics{State: br.State().String(), Trips: br.Trips()}
	}
	s.mu.Unlock()
	if s.journal != nil {
		m.JournalEntries = len(s.journal.Entries())
	}
	return m
}
