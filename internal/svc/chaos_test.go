package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	dream "repro"
	"repro/internal/exp"
	"repro/internal/harness"
)

// newTestServer starts a Service behind httptest and tears both down (and
// detaches any process-wide cache dir) at cleanup.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Service) {
	t.Helper()
	s := startService(t, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if opts.CacheDir != "" {
			dream.SetCacheDir("", 0)
		}
	})
	return ts, s
}

// tinyBody is a fast request: the xz workload at 2 cores / 2000 accesses
// finishes in well under a second. Vary seed to defeat caching per test.
func tinyBody(seed uint64) string {
	return fmt.Sprintf(`{"workload":"xz","scheme":"base","trh":2000,"cores":2,"accessespercore":2000,"seed":%d}`, seed)
}

func post(t *testing.T, url, body string) (int, response, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, r, resp.Header
}

func TestHTTPSimulateCacheHitAndWarmRestart(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	journal := filepath.Join(t.TempDir(), "results", "dreamd.journal.jsonl")
	ts, _ := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir, JournalPath: journal})

	code, first, _ := post(t, ts.URL+"/v1/simulate", tinyBody(77))
	if code != http.StatusOK || !first.OK {
		t.Fatalf("first simulate = %d %+v", code, first.Error)
	}
	code, second, _ := post(t, ts.URL+"/v1/simulate", tinyBody(77))
	if code != http.StatusOK || !second.CacheHit {
		t.Fatalf("repeat simulate = %d, cache_hit=%v, want a hit", code, second.CacheHit)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result differs from computed result")
	}

	// "Restart": a fresh Service over the same cache dir and journal serves
	// the completed request byte-identically from disk, and /readyz reports
	// the journaled completions as warm. Dropping the in-memory tier makes
	// the disk the only possible source.
	ts.Close()
	exp.ResetCache()
	ts2, _ := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir, JournalPath: journal})
	code, warm, _ := post(t, ts2.URL+"/v1/simulate", tinyBody(77))
	if code != http.StatusOK || !warm.CacheHit {
		t.Fatalf("restarted simulate = %d, cache_hit=%v, want warm hit", code, warm.CacheHit)
	}
	if !bytes.Equal(first.Result, warm.Result) {
		t.Fatal("restarted server's result not byte-identical")
	}
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd struct {
		Ready       bool `json:"ready"`
		WarmEntries int  `json:"warm_entries"`
	}
	json.NewDecoder(resp.Body).Decode(&rd)
	resp.Body.Close()
	if !rd.Ready || rd.WarmEntries < 1 {
		t.Errorf("readyz = %+v, want ready with warm entries", rd)
	}
}

// TestHTTPValidationRejects: malformed requests fail validation with 400
// before admission, so they take no queue slot, breaker token or journal
// entry.
func TestHTTPValidationRejects(t *testing.T) {
	ts, s := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, path, body string
	}{
		{"unknown scheme", "/v1/simulate", `{"workload":"xz","scheme":"nope"}`},
		{"server-owned cache knob", "/v1/simulate", `{"workload":"xz","scheme":"base","cachedir":"/tmp/x"}`},
		{"unknown field", "/v1/simulate", `{"workload":"xz","scheme":"base","bogus":1}`},
		{"malformed json", "/v1/simulate", `{"workload":`},
		{"simulate without scheme", "/v1/simulate", `{"workload":"xz","cores":2,"accessespercore":2000}`},
		{"compare without scheme", "/v1/compare", `{"workload":"xz","cores":2,"accessespercore":2000}`},
		{"attack without scheme", "/v1/attack", `{"kind":"double-sided","cores":2,"acts":2000}`},
		{"bad attack kind", "/v1/attack", `{"kind":"sideways","scheme":"base"}`},
	}
	for _, tc := range cases {
		code, r, _ := post(t, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest || r.Error == nil || r.Error.Kind != "validation" {
			t.Errorf("%s: got %d %+v, want 400 validation", tc.name, code, r.Error)
		}
	}
	if m := s.Snapshot(); m.Accepted != 0 || m.Failed != 0 {
		t.Errorf("rejected requests reached admission: accepted %d, failed %d", m.Accepted, m.Failed)
	}
}

func TestHTTPInjectedPanicIsStructured500(t *testing.T) {
	ts, s := newTestServer(t, Options{Workers: 1, EnableFaults: true})
	defer harness.InjectFault(harness.FaultNone, 0, 0)

	code, _, _ := post(t, ts.URL+"/debug/fault", `{"spec":"panic:1"}`)
	if code != http.StatusOK {
		t.Fatalf("arming fault = %d", code)
	}
	code, r, _ := post(t, ts.URL+"/v1/simulate", tinyBody(1001))
	if code != http.StatusInternalServerError || r.Error == nil || r.Error.Kind != "panic" {
		t.Fatalf("panicked request = %d %+v, want structured 500 panic", code, r.Error)
	}
	// Disarm and confirm the server kept serving.
	post(t, ts.URL+"/debug/fault", `{"spec":""}`)
	code, ok, _ := post(t, ts.URL+"/v1/simulate", tinyBody(1002))
	if code != http.StatusOK || !ok.OK {
		t.Fatalf("post-panic request = %d %+v", code, ok.Error)
	}
	if m := s.Snapshot(); m.Panics < 1 {
		t.Errorf("panics counter = %d", m.Panics)
	}
}

func TestHTTPFlakyFaultIsRetriedToSuccess(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1, EnableFaults: true})
	defer harness.InjectFault(harness.FaultNone, 0, 0)

	post(t, ts.URL+"/debug/fault", `{"spec":"flaky:1"}`)
	code, r, _ := post(t, ts.URL+"/v1/simulate", tinyBody(2001))
	if code != http.StatusOK || !r.OK {
		t.Fatalf("flaky request = %d %+v, want retried success", code, r.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "dreamd_sim_retries_total") {
		t.Error("metrics missing retry counter")
	}
}

func TestHTTPWatchdogStall503AndBreaker(t *testing.T) {
	// The watchdog must be generous enough that a genuine tiny simulation
	// (the recovery probe below) never trips it, even under -race.
	defer dream.SetSimTimeout(dream.SetSimTimeout(500 * time.Millisecond))
	defer harness.InjectFault(harness.FaultNone, 0, 0)
	ts, s := newTestServer(t, Options{
		Workers: 1, EnableFaults: true,
		BreakerThreshold: 1, BreakerOpenFor: 150 * time.Millisecond,
	})

	// Stall every attempt (retries included) so the watchdog failure
	// surfaces to the client as a structured, retryable 503.
	post(t, ts.URL+"/debug/fault", `{"spec":"stall:1:8","step_ms":200}`)
	code, r, hdr := post(t, ts.URL+"/v1/simulate", tinyBody(3001))
	if code != http.StatusServiceUnavailable || r.Error == nil || r.Error.Kind != "watchdog" {
		t.Fatalf("stalled request = %d %+v, want 503 watchdog", code, r.Error)
	}
	if !r.Error.Retryable || hdr.Get("Retry-After") == "" {
		t.Errorf("watchdog response not retryable (%+v, Retry-After=%q)", r.Error, hdr.Get("Retry-After"))
	}
	// Threshold 1: the class breaker tripped; the next simulate sheds
	// without running.
	post(t, ts.URL+"/debug/fault", `{"spec":""}`)
	code, r, hdr = post(t, ts.URL+"/v1/simulate", tinyBody(3002))
	if code != http.StatusServiceUnavailable || r.Error == nil || r.Error.Kind != "breaker_open" {
		t.Fatalf("post-trip request = %d %+v, want 503 breaker_open", code, r.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("breaker shed missing Retry-After")
	}
	if st := s.Snapshot().Breakers[ClassSimulate]; st.Trips < 1 {
		t.Errorf("breaker trips = %d", st.Trips)
	}
	// After the open window, the half-open probe (faults disarmed) heals
	// the class.
	time.Sleep(200 * time.Millisecond)
	code, r, _ = post(t, ts.URL+"/v1/simulate", tinyBody(3002))
	if code != http.StatusOK || !r.OK {
		t.Fatalf("recovery probe = %d %+v", code, r.Error)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	defer dream.SetSimTimeout(dream.SetSimTimeout(250 * time.Millisecond))
	defer harness.InjectFault(harness.FaultNone, 0, 0)
	ts, s := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1, EnableFaults: true,
		BreakerThreshold: 100, // keep the breaker out of this test
	})

	// Stall every simulation so one request occupies the worker and one
	// fills the queue; the third must bounce with 429 + Retry-After. The
	// fill is sequenced (first running, then second queued) so the overflow
	// is deterministic.
	post(t, ts.URL+"/debug/fault", `{"spec":"stall:1:64","step_ms":20}`)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL+"/v1/simulate", tinyBody(uint64(4000+i)))
		}()
	}
	launch(0)
	waitFor(t, func() bool {
		m := s.Snapshot()
		return m.Accepted == 1 && m.QueueDepth == 0
	})
	launch(1)
	waitFor(t, func() bool {
		m := s.Snapshot()
		return m.Accepted == 2 && m.QueueDepth == 1
	})
	code, r, hdr := post(t, ts.URL+"/v1/simulate", tinyBody(4099))
	if code != http.StatusTooManyRequests || r.Error == nil || r.Error.Kind != "queue_full" {
		t.Fatalf("overflow request = %d %+v, want 429 queue_full", code, r.Error)
	}
	if hdr.Get("Retry-After") == "" || !r.Error.Retryable {
		t.Errorf("429 not retryable (%+v)", r.Error)
	}
	wg.Wait()
}

func TestHTTPDedupOfIdenticalInFlight(t *testing.T) {
	defer harness.InjectFault(harness.FaultNone, 0, 0)
	ts, s := newTestServer(t, Options{Workers: 1, QueueDepth: 4, EnableFaults: true})

	// Slow the one real computation down so the duplicates reliably arrive
	// while it is in flight.
	post(t, ts.URL+"/debug/fault", `{"spec":"stall:1:1","step_ms":3}`)
	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = post(t, ts.URL+"/v1/simulate", tinyBody(5001))
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d = %d", i, c)
		}
	}
	// All but the leader either joined the flight or hit the cache; the
	// admission queue never saw n entries.
	if m := s.Snapshot(); m.Deduped+m.Accepted < int64(n) || m.Accepted >= n {
		t.Errorf("dedup counters: accepted=%d deduped=%d", m.Accepted, m.Deduped)
	}
}

func TestUnusableCacheDirDegradesToComputeOnly(t *testing.T) {
	// A file where the cache directory should be makes it unusable.
	notADir := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	defer harness.SetOutput(harness.SetOutput(&log))
	ts, _ := newTestServer(t, Options{Workers: 1, CacheDir: notADir})

	code, r, _ := post(t, ts.URL+"/v1/simulate", tinyBody(6001))
	if code != http.StatusOK || !r.OK {
		t.Fatalf("compute-only simulate = %d %+v", code, r.Error)
	}
	if !strings.Contains(log.String(), "persistent cache disabled") {
		t.Errorf("missing degradation notice; log:\n%s", log.String())
	}
}

func TestHTTPCacheGCUnderLiveTraffic(t *testing.T) {
	// A tiny size cap forces eviction sweeps on nearly every fill; live
	// requests must keep succeeding throughout.
	cacheDir := filepath.Join(t.TempDir(), "cache")
	ts, _ := newTestServer(t, Options{Workers: 4, QueueDepth: 16,
		CacheDir: cacheDir, CacheMaxBytes: 4096})
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := 0; i < len(codes); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = post(t, ts.URL+"/v1/simulate", tinyBody(uint64(7000+i)))
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d under GC churn = %d", i, c)
		}
	}
}

func TestHTTPCorruptCacheEntryRecomputed(t *testing.T) {
	// Drop the in-memory tier so this request demonstrably writes (and the
	// rerun demonstrably reads past) the disk entry.
	exp.ResetCache()
	cacheDir := filepath.Join(t.TempDir(), "cache")
	ts, _ := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})

	code, first, _ := post(t, ts.URL+"/v1/simulate", tinyBody(8001))
	if code != http.StatusOK {
		t.Fatalf("seed request = %d", code)
	}
	// Corrupt every cache entry on disk (entries are 62-hex-char files
	// inside 2-hex-char shard directories).
	n := 0
	filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && len(d.Name()) == 62 {
			os.WriteFile(path, []byte("garbage"), 0o644)
			n++
		}
		return nil
	})
	if n == 0 {
		t.Fatal("no cache entries written to corrupt")
	}
	// A fresh service over the corrupted store recomputes: same bytes,
	// no error surfaced to the client.
	ts.Close()
	dream.SetCacheDir("", 0)
	exp.ResetCache()
	ts2, _ := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	code, again, _ := post(t, ts2.URL+"/v1/simulate", tinyBody(8001))
	if code != http.StatusOK || !again.OK {
		t.Fatalf("request over corrupt cache = %d %+v", code, again.Error)
	}
	if !bytes.Equal(first.Result, again.Result) {
		t.Fatal("recomputed result differs from original")
	}
}

func TestHTTPShutdownDrainsMidRun(t *testing.T) {
	ts, s := newTestServer(t, Options{Workers: 1, DrainTimeout: 10 * time.Second})
	done := make(chan struct {
		code int
		r    response
	}, 1)
	go func() {
		code, r, _ := post(t, ts.URL+"/v1/simulate", tinyBody(9001))
		done <- struct {
			code int
			r    response
		}{code, r}
	}()
	waitFor(t, func() bool { return s.Snapshot().Accepted == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	// The mid-run request completed rather than being dropped.
	select {
	case out := <-done:
		if out.code != http.StatusOK || !out.r.OK {
			t.Fatalf("mid-drain request = %d %+v", out.code, out.r.Error)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("mid-drain request never resolved")
	}
	// And late arrivals get a structured draining rejection.
	code, r, _ := post(t, ts.URL+"/v1/simulate", tinyBody(9002))
	if code != http.StatusServiceUnavailable || r.Error == nil || r.Error.Kind != "draining" {
		t.Fatalf("post-drain request = %d %+v, want 503 draining", code, r.Error)
	}
}
