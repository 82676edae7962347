package svc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/stats"
)

// CampaignClient fans one planned campaign across N dreamd shards. It is an
// exp.Executor, so any figure driver runs remotely by setting
// Options.Executor — the driver's plan/merge logic is untouched, and because
// results round-trip through versioned JSON bit-exactly, the rendered figure
// is byte-identical to an in-process run.
//
// Every live shard receives the same sub-plan; shards sharing a campaign
// directory partition it through the lease ledger, shards without one
// duplicate work (results are deterministic, so duplication is waste, not
// corruption). The first successful record per cell wins. Cells that fail
// retryably are re-posted to surviving shards for RetryRounds extra rounds.
type CampaignClient struct {
	// Endpoints are dreamd base URLs ("http://host:port"). At least one.
	Endpoints []string
	// HTTP is the transport (default: http.DefaultClient). Campaign streams
	// are long-lived; the client must not set a whole-request timeout.
	HTTP *http.Client
	// RetryRounds is how many extra passes re-post unresolved cells to the
	// shards that are still alive: 0 selects the default of 2, a negative
	// value none (a single round).
	RetryRounds int
}

// PlanMismatchError reports a shard that derives a different plan (schema
// version, cache key generation, or plan hash) than this client. The shard
// is dropped from the campaign: merging its cells would mix incomparable
// results.
type PlanMismatchError struct {
	Endpoint string
	Message  string
}

func (e *PlanMismatchError) Error() string {
	return fmt.Sprintf("svc: shard %s rejected plan: %s", e.Endpoint, e.Message)
}

// cellState tracks one cell's merge status across rounds.
type cellState struct {
	done bool
	res  stats.RunResult
	err  error // permanent failure (done with error)
	last error // most recent retryable failure, kept for the final report
}

// ExecCells implements exp.Executor over the shard fleet. The returned slice
// is in plan order regardless of which shard resolved which cell.
func (c *CampaignClient) ExecCells(ctx context.Context, cells []exp.CampaignCell) []exp.CellResult {
	out := make([]exp.CellResult, len(cells))
	if len(cells) == 0 {
		return out
	}
	if len(c.Endpoints) == 0 {
		for i := range out {
			out[i].Err = errors.New("svc: campaign client has no endpoints")
		}
		return out
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	rounds := 1 + c.RetryRounds
	switch {
	case c.RetryRounds == 0:
		rounds = 3
	case c.RetryRounds < 0:
		rounds = 1
	}

	states := make([]cellState, len(cells))
	var mu sync.Mutex
	live := make([]string, 0, len(c.Endpoints))
	for _, ep := range c.Endpoints {
		live = append(live, strings.TrimRight(ep, "/"))
	}
	live = c.validateSchemes(ctx, httpc, live, cells)
	if len(live) == 0 {
		for i := range out {
			out[i].Err = errors.New("svc: no shard registers every scheme this plan references (see each shard's GET /v1/schemes)")
		}
		return out
	}

	for round := 0; round < rounds && len(live) > 0 && ctx.Err() == nil; round++ {
		// Sub-plan: the cells still unresolved, with their original indices.
		var orig []int
		var sub []exp.CampaignCell
		mu.Lock()
		for i, st := range states {
			if !st.done {
				orig = append(orig, i)
				sub = append(sub, cells[i])
			}
		}
		mu.Unlock()
		if len(sub) == 0 {
			break
		}
		body, err := json.Marshal(campaignRequest{
			SchemaVersion: exp.CampaignSchemaVersion,
			KeyGeneration: exp.KeyGeneration(),
			PlanHash:      exp.PlanHash(sub),
			Cells:         sub,
		})
		if err != nil {
			for i := range out {
				out[i].Err = fmt.Errorf("svc: encoding campaign plan: %w", err)
			}
			return out
		}

		merge := func(subIdx int, line campaignLine) {
			if subIdx < 0 || subIdx >= len(orig) {
				return
			}
			i := orig[subIdx]
			mu.Lock()
			defer mu.Unlock()
			st := &states[i]
			if st.done {
				return
			}
			if line.Error != "" {
				err := fmt.Errorf("cell %d (%s): %s", i, cells[i].Key(), line.Error)
				if line.Retryable {
					st.last = err
				} else {
					st.done, st.err = true, err
				}
				return
			}
			var res stats.RunResult
			if derr := json.Unmarshal(line.Result, &res); derr != nil {
				st.last = fmt.Errorf("cell %d: decoding shard result: %w", i, derr)
				return
			}
			st.done, st.res = true, res
		}

		var wg sync.WaitGroup
		dropped := make([]bool, len(live))
		for e, ep := range live {
			wg.Add(1)
			go func(e int, ep string) {
				defer wg.Done()
				err := c.streamOne(ctx, httpc, ep, body, merge)
				var pm *PlanMismatchError
				if errors.As(err, &pm) {
					harness.Noticef("campaign-mismatch-"+ep, "svc: dropping shard: %v", pm)
					dropped[e] = true
				}
			}(e, ep)
		}
		wg.Wait()
		var next []string
		for e, ep := range live {
			if !dropped[e] {
				next = append(next, ep)
			}
		}
		live = next
	}

	mu.Lock()
	defer mu.Unlock()
	for i, st := range states {
		switch {
		case st.done && st.err != nil:
			out[i].Err = st.err
		case st.done:
			out[i].Res = st.res
		case st.last != nil:
			out[i].Err = fmt.Errorf("svc: cell unresolved after %d rounds: %w", rounds, st.last)
		case ctx.Err() != nil:
			out[i].Err = ctx.Err()
		default:
			out[i].Err = fmt.Errorf("svc: cell %d unresolved: no shard completed it", i)
		}
	}
	return out
}

// validateSchemes preflights the plan's scheme names against each shard's
// GET /v1/schemes roster and drops shards missing any of them — posting a
// cell whose scheme a shard never registered can only fail there, and with
// custom registrations different binaries legitimately carry different
// rosters. The check is advisory: a shard whose roster cannot be fetched
// (older dreamd, transient error) is kept and the campaign's own error
// handling covers it.
func (c *CampaignClient) validateSchemes(ctx context.Context, httpc *http.Client,
	live []string, cells []exp.CampaignCell) []string {
	needed := make(map[string]bool)
	for _, cell := range cells {
		needed[cell.Scheme] = true
	}
	kept := live[:0]
	for _, ep := range live {
		names, err := fetchSchemeNames(ctx, httpc, ep)
		if err != nil {
			kept = append(kept, ep)
			continue
		}
		missing := ""
		for n := range needed {
			if !names[n] {
				missing = n
				break
			}
		}
		if missing != "" {
			harness.Noticef("campaign-schemes-"+ep,
				"svc: dropping shard %s: scheme %q not registered there", ep, missing)
			continue
		}
		kept = append(kept, ep)
	}
	return kept
}

// fetchSchemeNames retrieves one shard's registered scheme names.
func fetchSchemeNames(ctx context.Context, httpc *http.Client, endpoint string) (map[string]bool, error) {
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, endpoint+"/v1/schemes", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("svc: shard %s: %s", endpoint, resp.Status)
	}
	var body schemesResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(body.Schemes))
	for _, m := range body.Schemes {
		names[m.Name] = true
	}
	return names, nil
}

// streamOne posts the sub-plan to one shard and feeds its JSONL stream into
// merge. Transport errors and mid-stream drops leave unfinished cells for the
// next round; a plan mismatch is returned typed so the shard can be dropped.
func (c *CampaignClient) streamOne(ctx context.Context, httpc *http.Client,
	endpoint string, body []byte, merge func(int, campaignLine)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		endpoint+"/v1/campaign", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env response
		msg := resp.Status
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); derr == nil && env.Error != nil {
			msg = env.Error.Message
			if env.Error.Kind == errPlanMismatch {
				return &PlanMismatchError{Endpoint: endpoint, Message: msg}
			}
		}
		return fmt.Errorf("svc: shard %s: %s", endpoint, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec campaignLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("svc: shard %s: bad stream record: %w", endpoint, err)
		}
		switch rec.Type {
		case "cell":
			merge(rec.Cell, rec)
		case "fatal":
			return fmt.Errorf("svc: shard %s: %s", endpoint, rec.Error)
		case "done":
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("svc: shard %s: stream: %w", endpoint, err)
	}
	return nil
}
