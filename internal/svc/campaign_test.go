package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/stats"
)

// testCells builds a small, cheap campaign plan. Seeds are salted per test so
// the process-global run cache never leaks warmth between tests.
func testCells(salt uint64, schemes ...string) []exp.CampaignCell {
	var cells []exp.CampaignCell
	for _, sc := range schemes {
		cells = append(cells, exp.CampaignCell{
			Workload: "mcf", Scheme: sc,
			TRH: 1000, Cores: 1, Accesses: 3000, Seed: 0xc0ffee + salt,
		})
	}
	return cells
}

func campaignBody(t *testing.T, cells []exp.CampaignCell) []byte {
	t.Helper()
	b, err := json.Marshal(campaignRequest{
		SchemaVersion: exp.CampaignSchemaVersion,
		KeyGeneration: exp.KeyGeneration(),
		PlanHash:      exp.PlanHash(cells),
		Cells:         cells,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postCampaign drives /v1/campaign and decodes the JSONL stream.
func postCampaign(t *testing.T, url string, body []byte) (lines []campaignLine, status int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec campaignLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, resp.StatusCode
}

func cellLines(lines []campaignLine) map[int]campaignLine {
	m := make(map[int]campaignLine)
	for _, ln := range lines {
		if ln.Type == "cell" {
			m[ln.Cell] = ln
		}
	}
	return m
}

func TestCampaignStandaloneStreamsResults(t *testing.T) {
	s := startService(t, Options{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cells := testCells(1, "base", "para-nrr", "mint-dreamr")
	lines, status := postCampaign(t, ts.URL, campaignBody(t, cells))
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if lines[0].Type != "plan" || lines[0].Cells != len(cells) || lines[0].PlanHash != exp.PlanHash(cells) {
		t.Fatalf("first line = %+v, want plan ack", lines[0])
	}
	got := cellLines(lines)
	if len(got) != len(cells) {
		t.Fatalf("resolved %d cells, want %d", len(got), len(cells))
	}
	for i, c := range cells {
		ln := got[i]
		if ln.Error != "" {
			t.Fatalf("cell %d failed: %s", i, ln.Error)
		}
		// The streamed result must decode to exactly what in-process
		// execution produces (byte-identical rendering downstream).
		want, err := exp.ExecCell(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var res stats.RunResult
		if err := json.Unmarshal(ln.Result, &res); err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		if !bytes.Equal(wb, ln.Result) {
			t.Errorf("cell %d: streamed result differs from in-process run\n got %s\nwant %s", i, ln.Result, wb)
		}
		_ = res
	}
	last := lines[len(lines)-1]
	if last.Type != "done" || last.Completed != len(cells) || last.Failed != 0 {
		t.Fatalf("trailer = %+v", last)
	}

	// Warm repeat: every cell probes out of the run cache without touching
	// the worker pool — no new accepted flights, all served "cache".
	before := s.Snapshot()
	lines2, _ := postCampaign(t, ts.URL, campaignBody(t, cells))
	after := s.Snapshot()
	for i, ln := range cellLines(lines2) {
		if ln.Served != "cache" || ln.Error != "" {
			t.Fatalf("warm cell %d served %q (err %q), want cache", i, ln.Served, ln.Error)
		}
	}
	if after.Accepted != before.Accepted {
		t.Errorf("warm campaign occupied worker slots: accepted %d -> %d", before.Accepted, after.Accepted)
	}
	if d := after.Campaign.CellsCacheServed - before.Campaign.CellsCacheServed; d != int64(len(cells)) {
		t.Errorf("cache-served delta = %d, want %d", d, len(cells))
	}
}

func TestCampaignRejectsMismatchedPlans(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cells := testCells(2, "base")
	post := func(mutate func(*campaignRequest)) *errBody {
		t.Helper()
		req := campaignRequest{
			SchemaVersion: exp.CampaignSchemaVersion,
			KeyGeneration: exp.KeyGeneration(),
			PlanHash:      exp.PlanHash(cells),
			Cells:         cells,
		}
		mutate(&req)
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var env response
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Error == nil {
			t.Fatal("400 without structured error")
		}
		return env.Error
	}

	if e := post(func(r *campaignRequest) { r.SchemaVersion = 99 }); e.Kind != errPlanMismatch {
		t.Errorf("schema mismatch kind = %q", e.Kind)
	}
	if e := post(func(r *campaignRequest) { r.KeyGeneration = "g999" }); e.Kind != errPlanMismatch {
		t.Errorf("key generation mismatch kind = %q", e.Kind)
	}
	if e := post(func(r *campaignRequest) { r.PlanHash = "deadbeef" }); e.Kind != errPlanMismatch {
		t.Errorf("plan hash mismatch kind = %q", e.Kind)
	}
	if e := post(func(r *campaignRequest) { r.Cells[0].Scheme = "no-such-scheme" }); e.Kind != errValidation {
		t.Errorf("bad cell kind = %q", e.Kind)
	}
	// Restore: post mutates the shared slice via the request alias.
	cells[0].Scheme = "base"
}

// TestCampaignClientDropsMismatchedShard exercises the typed client-side
// rejection: a shard speaking a different plan dialect is dropped, never
// merged.
func TestCampaignClientDropsMismatchedShard(t *testing.T) {
	mismatch := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errPlanMismatch, Message: "schema skew"})
	}))
	defer mismatch.Close()

	c := &CampaignClient{Endpoints: []string{mismatch.URL}}
	err := c.streamOne(context.Background(), http.DefaultClient, mismatch.URL, []byte("{}"), nil)
	var pm *PlanMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("streamOne error = %v, want *PlanMismatchError", err)
	}
	if pm.Endpoint != mismatch.URL {
		t.Errorf("mismatch endpoint = %q", pm.Endpoint)
	}

	// A full ExecCells against only mismatched shards resolves nothing.
	out := c.ExecCells(context.Background(), testCells(3, "base"))
	for i, r := range out {
		if r.Err == nil {
			t.Errorf("cell %d resolved against a mismatched shard", i)
		}
	}
}

// TestCampaignClientRetryRounds pins how RetryRounds maps to rounds against a
// shard that fails every cell retryably: a negative value posts the plan
// once and leaves the cell unresolved, zero keeps the default of two extra
// rounds, and a positive value adds that many.
func TestCampaignClientRetryRounds(t *testing.T) {
	var posts atomic.Int32
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaign" {
			http.NotFound(w, r) // no roster: the preflight keeps the shard
			return
		}
		posts.Add(1)
		enc := json.NewEncoder(w)
		enc.Encode(campaignLine{Type: "cell", Cell: 0, Error: "watchdog", Retryable: true})
		enc.Encode(campaignLine{Type: "done"})
	}))
	defer shard.Close()

	for _, tc := range []struct{ retryRounds, rounds int }{{-1, 1}, {0, 3}, {1, 2}} {
		posts.Store(0)
		c := &CampaignClient{Endpoints: []string{shard.URL}, RetryRounds: tc.retryRounds}
		out := c.ExecCells(context.Background(), testCells(7, "base"))
		want := fmt.Sprintf("unresolved after %d rounds", tc.rounds)
		if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), want) {
			t.Errorf("RetryRounds %d: err = %v, want %q", tc.retryRounds, out[0].Err, want)
		}
		if got := int(posts.Load()); got != tc.rounds {
			t.Errorf("RetryRounds %d: posted the plan %d times, want %d", tc.retryRounds, got, tc.rounds)
		}
	}
}

// TestCampaignTwoShardsWorkSteal runs two services against one shared lease
// ledger: the fan-out client posts the same plan to both, the ledger
// partitions execution, and the merged results are identical to in-process
// execution.
func TestCampaignTwoShardsWorkSteal(t *testing.T) {
	campDir := t.TempDir()
	s1 := startService(t, Options{Workers: 2, QueueDepth: 8, CampaignDir: campDir, ShardID: "shard-1"})
	s2 := startService(t, Options{Workers: 2, QueueDepth: 8, CampaignDir: campDir, ShardID: "shard-2"})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	cells := testCells(4, "base", "para-nrr", "mint-nrr", "graphene-nrr", "mint-dreamr", "moat")
	client := &CampaignClient{Endpoints: []string{ts1.URL, ts2.URL}, RetryRounds: 2}
	out := client.ExecCells(context.Background(), cells)

	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		want, err := exp.ExecCell(context.Background(), cells[i])
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(r.Res)
		if !bytes.Equal(wb, gb) {
			t.Errorf("cell %d: sharded result differs from in-process\n got %s\nwant %s", i, gb, wb)
		}
	}

	m1, m2 := s1.Snapshot().Campaign, s2.Snapshot().Campaign
	// The ledger partitions execution: every cell leased exactly once across
	// the fleet (fresh seeds, so no probe hits on the first round).
	if got := m1.CellsLeased + m2.CellsLeased; got != int64(len(cells)) {
		t.Errorf("total leased = %d, want %d (m1=%+v m2=%+v)", got, len(cells), m1, m2)
	}
	if m1.CellsFailed+m2.CellsFailed != 0 {
		t.Errorf("failed cells: m1=%d m2=%d", m1.CellsFailed, m2.CellsFailed)
	}
	// The ledger file exists under the campaign dir, named by plan hash.
	if _, err := filepath.Glob(filepath.Join(campDir, "*.leases.jsonl")); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(campDir, "*.leases.jsonl"))
	if len(matches) == 0 {
		t.Error("no lease ledger written to the campaign dir")
	}
}

// TestCampaignDrainingRejects: a draining shard rejects new campaigns with
// the standard 503 body.
func TestCampaignDrainingRejects(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, status := postCampaign(t, ts.URL, campaignBody(t, testCells(5, "base")))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status after drain = %d, want 503", status)
	}
}

func TestReadyzReportsLoadGauges(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rd struct {
		Ready      bool `json:"ready"`
		QueueDepth *int `json:"queue_depth"`
		InFlight   *int `json:"in_flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Ready || rd.QueueDepth == nil || rd.InFlight == nil {
		t.Fatalf("readyz = %+v, want ready with queue_depth and in_flight", rd)
	}
}

func TestMetricsExposeCampaignCounters(t *testing.T) {
	s := startService(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One standalone campaign so the counters are non-trivial.
	if lines, status := postCampaign(t, ts.URL, campaignBody(t, testCells(6, "base"))); status != http.StatusOK {
		t.Fatalf("campaign status = %d", status)
	} else if got := cellLines(lines); len(got) != 1 || got[0].Error != "" {
		t.Fatalf("campaign cells = %+v", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"dreamd_campaigns_total 1",
		`dreamd_campaign_cells_total{event="planned"} 1`,
		`dreamd_campaign_cells_total{event="completed"} 1`,
		`dreamd_breaker_open{class="campaign"}`,
		"dreamd_inflight_requests",
		"dreamd_campaign_cell_busy_seconds",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
