package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/stats"
)

// POST /v1/campaign: execute a planned cell list as a batch, streaming one
// JSONL record per cell as it resolves. With Options.CampaignDir set, cells
// are claimed through the shared lease ledger, so N dreamd processes posted
// the same plan work-steal one campaign with no coordinator: each shard
// executes the cells it leases, serves the rest from other shards'
// completion records, and a crashed shard's cells are reclaimed after lease
// expiry. Warm cells — already in the run cache or the shared disk tier —
// are served in a probe pass up front without ever occupying a worker slot.

// campaignRequest is the /v1/campaign body: a version-stamped plan.
type campaignRequest struct {
	SchemaVersion int    `json:"schema_version"`
	KeyGeneration string `json:"key_generation"`
	// PlanHash must equal exp.PlanHash(Cells) as recomputed by the server; a
	// mismatch means the peers disagree on cell identity and must not
	// exchange results (see errPlanMismatch).
	PlanHash string             `json:"plan_hash"`
	Cells    []exp.CampaignCell `json:"cells"`
}

// campaignLine is one streamed JSONL record. Type "plan" acknowledges the
// campaign (first line), "cell" carries one resolved cell, "done" is the
// summary trailer, "fatal" aborts the stream (ledger I/O failure — the
// client treats unresolved cells as retryable).
type campaignLine struct {
	Type     string `json:"type"`
	Shard    string `json:"shard,omitempty"`
	PlanHash string `json:"plan_hash,omitempty"`
	Cells    int    `json:"cells,omitempty"`
	Cell     int    `json:"cell"`
	// Served reports where a cell's result came from: "cache" (probe
	// fast-path, no worker), "run" (executed here), or "peer" (another
	// shard's ledger completion record).
	Served    string          `json:"served,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
	Completed int             `json:"completed,omitempty"`
	Failed    int             `json:"failed,omitempty"`
}

func (s *Service) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	// A full-figure plan is ~100 small cells; the default 1 MB body cap holds.
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SchemaVersion != exp.CampaignSchemaVersion {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errPlanMismatch,
			Message: fmt.Sprintf("campaign schema_version %d, this shard speaks %d",
				req.SchemaVersion, exp.CampaignSchemaVersion)})
		return
	}
	if req.KeyGeneration != exp.KeyGeneration() {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errPlanMismatch,
			Message: fmt.Sprintf("campaign key generation %q, this shard's cache keys are %q",
				req.KeyGeneration, exp.KeyGeneration())})
		return
	}
	if len(req.Cells) == 0 {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation,
			Message: "campaign has no cells"})
		return
	}
	for i, c := range req.Cells {
		if err := c.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation,
				Message: fmt.Sprintf("cell %d: %v", i, err)})
			return
		}
	}
	if got := exp.PlanHash(req.Cells); got != req.PlanHash {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errPlanMismatch,
			Message: fmt.Sprintf("plan hash %s, this shard derives %s from the same cells",
				req.PlanHash, got)})
		return
	}
	if s.draining.Load() {
		s.rejectedDrain.Add(1)
		status, body := classifyErr(ErrDraining)
		writeErr(w, status, body)
		return
	}

	s.campaigns.Add(1)
	s.campaignsActive.Add(1)
	defer s.campaignsActive.Add(-1)
	s.cellsPlanned.Add(int64(len(req.Cells)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var emitMu sync.Mutex
	emit := func(line campaignLine) {
		emitMu.Lock()
		defer emitMu.Unlock()
		json.NewEncoder(w).Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(campaignLine{Type: "plan", Shard: s.opts.ShardID, PlanHash: req.PlanHash, Cells: len(req.Cells)})

	st := &campaignState{
		cells:   req.Cells,
		emit:    emit,
		emitted: make([]bool, len(req.Cells)),
		failed:  make([]bool, len(req.Cells)),
	}

	// Probe fast-path: serve every already-memoized cell (memory or shared
	// disk tier) without touching the worker pool.
	for i, c := range req.Cells {
		if res, ok := exp.ProbeCell(c); ok {
			st.resolveLocal(i, res, nil, "cache")
			s.cellsCacheServed.Add(1)
		}
	}

	if st.remaining() == 0 {
		st.finish()
		return
	}
	if s.opts.CampaignDir == "" {
		s.campaignStandalone(r.Context(), st)
	} else {
		s.campaignLedger(r.Context(), st, req.PlanHash)
	}
	st.finish()
}

// campaignState tracks one campaign stream's per-cell resolution.
type campaignState struct {
	cells []exp.CampaignCell
	emit  func(campaignLine)

	mu      sync.Mutex
	emitted []bool
	failed  []bool
}

func (st *campaignState) remaining() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, e := range st.emitted {
		if !e {
			n++
		}
	}
	return n
}

func (st *campaignState) unresolved(i int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.emitted[i]
}

// resolveLocal emits one locally produced outcome (probe hit or execution).
func (st *campaignState) resolveLocal(i int, res stats.RunResult, err error, served string) {
	st.mu.Lock()
	if st.emitted[i] {
		st.mu.Unlock()
		return
	}
	st.emitted[i] = true
	st.failed[i] = err != nil
	st.mu.Unlock()
	if err != nil {
		st.emit(campaignLine{Type: "cell", Cell: i, Served: served,
			Error: err.Error(), Retryable: retryableCellErr(err)})
		return
	}
	raw, merr := json.Marshal(res)
	if merr != nil {
		st.mu.Lock()
		st.failed[i] = true
		st.mu.Unlock()
		st.emit(campaignLine{Type: "cell", Cell: i, Served: served,
			Error: fmt.Sprintf("encoding result: %v", merr)})
		return
	}
	st.emit(campaignLine{Type: "cell", Cell: i, Served: served, Result: raw})
}

// resolvePeer emits another shard's ledger completion record verbatim: the
// embedded result bytes are exactly what that shard computed, so the client
// merges byte-identical results no matter which shard streamed them.
func (st *campaignState) resolvePeer(i int, rec harness.LeaseRecord) {
	st.mu.Lock()
	if st.emitted[i] {
		st.mu.Unlock()
		return
	}
	st.emitted[i] = true
	st.failed[i] = rec.Status != harness.LeaseStatusOK
	st.mu.Unlock()
	if rec.Status != harness.LeaseStatusOK {
		st.emit(campaignLine{Type: "cell", Cell: i, Served: "peer", Error: rec.Error, Retryable: true})
		return
	}
	st.emit(campaignLine{Type: "cell", Cell: i, Served: "peer", Result: rec.Result})
}

func (st *campaignState) finish() {
	st.mu.Lock()
	completed, failed := 0, 0
	for i, e := range st.emitted {
		if !e {
			continue
		}
		if st.failed[i] {
			failed++
		} else {
			completed++
		}
	}
	st.mu.Unlock()
	st.emit(campaignLine{Type: "done", Completed: completed, Failed: failed})
}

// retryableCellErr reports whether the client should retry the cell on a
// surviving shard: transient sim failures, shed/timeout conditions, and
// anything that aborted because this campaign stream died.
func retryableCellErr(err error) bool {
	var shed *ShedError
	return harness.IsRetryable(err) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, harness.ErrSkipped) ||
		errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrDraining) ||
		errors.As(err, &shed)
}

// campaignStandalone executes every unresolved cell on the local worker
// pool (no ledger): one goroutine per cell, each blocking in cell admission
// until a queue slot frees, so a big campaign applies backpressure instead
// of tripping the 429 path meant for interactive requests.
func (s *Service) campaignStandalone(ctx context.Context, st *campaignState) {
	var wg sync.WaitGroup
	for i := range st.cells {
		if !st.unresolved(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.cellDo(ctx, st.cells[i])
			if err == nil {
				s.cellsCompleted.Add(1)
			} else {
				s.cellsFailed.Add(1)
			}
			st.resolveLocal(i, res, err, "run")
		}(i)
	}
	wg.Wait()
}

// campaignLedger drives one campaign through the shared lease ledger:
// lease-claim cells up to the worker count, execute them locally, record
// fsync'd completions, and serve cells other shards completed from their
// ledger records. The loop exits when every cell is resolved or the client
// goes away.
func (s *Service) campaignLedger(ctx context.Context, st *campaignState, planHash string) {
	n := len(st.cells)
	led, err := harness.OpenLedger(
		filepath.Join(s.opts.CampaignDir, planHash+".leases.jsonl"), s.opts.ShardID)
	if err != nil {
		st.emit(campaignLine{Type: "fatal", Error: fmt.Sprintf("opening lease ledger: %v", err)})
		return
	}
	defer led.Close()

	// claimed marks cells this shard currently executes, so Claim skips them
	// (our own live lease would otherwise look unclaimable but eligible).
	claimed := make([]bool, n)
	var claimedMu sync.Mutex

	type outcome struct {
		cell  int
		fence int64
		res   stats.RunResult
		err   error
		busy  time.Duration
	}
	outcomes := make(chan outcome, s.opts.Workers)
	inflight := 0

	// Poll pacing: fast enough to pick up peer completions promptly, slow
	// enough to stay invisible next to multi-second cells.
	poll := s.opts.LeaseTTL / 8
	if poll > 200*time.Millisecond {
		poll = 200 * time.Millisecond
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}

	handle := func(oc outcome) {
		inflight--
		claimedMu.Lock()
		claimed[oc.cell] = false
		claimedMu.Unlock()
		s.cellBusyNS.Add(int64(oc.busy))
		status, errMsg := harness.LeaseStatusOK, ""
		var payload []byte
		if oc.err != nil {
			status, errMsg = harness.LeaseStatusFail, oc.err.Error()
			s.cellsFailed.Add(1)
		} else {
			var merr error
			payload, merr = json.Marshal(oc.res)
			if merr != nil {
				status, errMsg = harness.LeaseStatusFail, fmt.Sprintf("encoding result: %v", merr)
			}
		}
		if status == harness.LeaseStatusOK {
			s.cellsCompleted.Add(1)
		}
		if cerr := led.Complete(oc.cell, oc.fence, status, errMsg, payload); cerr != nil {
			harness.Noticef("svc-ledger-complete",
				"dreamd: lease completion not recorded (cell re-runs after expiry): %v", cerr)
		}
		if oc.err != nil {
			st.resolveLocal(oc.cell, stats.RunResult{}, oc.err, "run")
		} else {
			st.resolveLocal(oc.cell, oc.res, nil, "run")
		}
	}

	for {
		// Fold in other shards' progress and serve their completed cells.
		if err := led.Refresh(); err != nil {
			st.emit(campaignLine{Type: "fatal", Error: fmt.Sprintf("reading lease ledger: %v", err)})
			break
		}
		for i := 0; i < n; i++ {
			if !st.unresolved(i) {
				continue
			}
			if rec, ok := led.Done(i); ok {
				st.resolvePeer(i, rec)
				s.cellsPeerServed.Add(1)
			}
		}
		if st.remaining() == 0 {
			break
		}

		// Claim up to the worker count; each claimed cell executes through
		// the normal flight lifecycle (breaker, dedup, panic isolation).
		for inflight < s.opts.Workers {
			cell, fence, stolen, ok, cerr := led.Claim(n, s.opts.LeaseTTL, func(i int) bool {
				claimedMu.Lock()
				mine := claimed[i]
				claimedMu.Unlock()
				return !mine && st.unresolved(i)
			})
			if cerr != nil {
				st.emit(campaignLine{Type: "fatal", Error: fmt.Sprintf("claiming lease: %v", cerr)})
				break
			}
			if !ok {
				break
			}
			claimedMu.Lock()
			claimed[cell] = true
			claimedMu.Unlock()
			s.cellsLeased.Add(1)
			if stolen {
				s.cellsStolen.Add(1)
			}
			inflight++
			go func(cell int, fence int64) {
				start := time.Now()
				res, err := s.cellDo(ctx, st.cells[cell])
				outcomes <- outcome{cell: cell, fence: fence, res: res, err: err, busy: time.Since(start)}
			}(cell, fence)
		}

		if inflight > 0 {
			select {
			case oc := <-outcomes:
				handle(oc)
			case <-ctx.Done():
			}
		} else {
			// Nothing claimable: peers hold live leases on everything left.
			// Wait for their completions or for a lease to expire.
			select {
			case <-time.After(poll):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	// Drain in-flight executions so their completions still reach the ledger
	// (the client may be gone, but surviving shards want the records).
	for inflight > 0 {
		handle(<-outcomes)
	}
}

// cellDo runs one campaign cell through the flight lifecycle. Unlike Do, a
// full queue blocks instead of rejecting: campaigns are batch work and the
// stream's progress records double as the backpressure signal. Identical
// in-flight cells (two campaigns sharing a grid, or a peer's retry) dedup
// onto one flight like any other request. Every cell runs under the
// service's default request timeout.
func (s *Service) cellDo(ctx context.Context, cell exp.CampaignCell) (stats.RunResult, error) {
	fl, _, err := s.admit(ctx, ClassCampaign, "cell-"+requestKey(ClassCampaign, cell), 0, true,
		func(ctx context.Context) (any, error) { return exp.ExecCell(ctx, cell) })
	if err != nil {
		return stats.RunResult{}, err
	}
	v, _, err := s.await(ctx, fl)
	if err != nil {
		return stats.RunResult{}, err
	}
	r, ok := v.(stats.RunResult)
	if !ok {
		return stats.RunResult{}, fmt.Errorf("svc: campaign flight returned %T", v)
	}
	return r, nil
}
