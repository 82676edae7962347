package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/svc"
)

// shard is one dreamd subprocess.
type shard struct {
	cmd     *exec.Cmd
	url     string
	stderr  *lockedBuffer
	drained chan struct{} // closed once stdout hits EOF
}

// lockedBuffer collects a subprocess's stderr for error reports.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// spawnShard starts dreamd with one worker on the shared cache and campaign
// directories and returns once it has printed its listen address.
func spawnShard(bin, cacheDir, campaignDir, id string) (*shard, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1",
		"-cache-dir", cacheDir, "-campaign-dir", campaignDir, "-journal", "", "-shard-id", id)
	s := &shard{cmd: cmd, stderr: &lockedBuffer{}, drained: make(chan struct{})}
	cmd.Stderr = s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.drained:
	case <-time.After(30 * time.Second):
	}
	s.kill()
	return nil, fmt.Errorf("dreamd %s did not report a listen address: %s", id, s.stderr.String())
}

func (s *shard) kill() {
	s.cmd.Process.Kill()
	<-s.drained
	s.cmd.Wait()
}

// stop sends SIGTERM, waits for the drain, and returns the shard's peak RSS
// in MiB.
func (s *shard) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, err
	}
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("dreamd did not drain within 60s")
		}
	}
	var rss float64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("dreamd exit: %v: %s", err, s.stderr.String())
	}
	return rss, nil
}

// waitReady polls /readyz until the shard admits requests.
func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 30s (last error %v)", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamObserver watches /v1/campaign response streams from the client side.
// Each shard runs one cell at a time, so the gap between two cells a shard
// reports as executed ("served":"run") on its stream is that cell's service
// time on the shard.
type streamObserver struct {
	base http.RoundTripper
	tr   *tracer
	span uint64
	name string

	mu  sync.Mutex
	lat []float64 // ms
}

func (o *streamObserver) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	sp := o.tr.start(o.name, o.span, "http")
	resp, err := o.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/campaign" {
		sp.end(map[string]any{"path": req.URL.Path, "host": req.URL.Host})
		return resp, err
	}
	resp.Body = &lineWatcher{rc: resp.Body, last: start, o: o, sp: sp, host: req.URL.Host}
	return resp, nil
}

type lineWatcher struct {
	rc   io.ReadCloser
	buf  []byte
	last time.Time
	o    *streamObserver
	sp   *span
	host string
	runs int
}

func (w *lineWatcher) Read(p []byte) (int, error) {
	n, err := w.rc.Read(p)
	w.buf = append(w.buf, p[:n]...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		var line struct {
			Type   string `json:"type"`
			Served string `json:"served"`
		}
		if json.Unmarshal(w.buf[:i], &line) == nil && line.Type == "cell" && line.Served == "run" {
			now := time.Now()
			w.o.mu.Lock()
			w.o.lat = append(w.o.lat, float64(now.Sub(w.last))/float64(time.Millisecond))
			w.o.mu.Unlock()
			w.last = now
			w.runs++
		}
		w.buf = w.buf[i+1:]
	}
	return n, err
}

func (w *lineWatcher) Close() error {
	w.sp.end(map[string]any{"path": "/v1/campaign", "host": w.host, "cells_run": w.runs})
	return w.rc.Close()
}

// scrapeMetrics reads a shard's Prometheus text exposition into
// `name{labels}` → value.
func scrapeMetrics(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// runFig19Sharded renders the same quick Figure 19 as fig19-quick-cold
// through svc.CampaignClient across two dreamd shards that share a fresh cache
// and campaign directory, so cells are split by the lease ledger. Every pass
// spawns fresh shards (its set-up), keeping each pass cold.
func runFig19Sharded(r *runner) error {
	if _, err := os.Stat(r.opt.dreamd); err != nil {
		return fmt.Errorf("dreamd binary: %w (bench/run.sh builds it)", err)
	}
	var last *cellExecutor
	err := r.passes(r.budget(), func(k int, traced bool) (passOut, error) {
		dir := filepath.Join(r.dir, fmt.Sprintf("pass-%d", k))
		defer os.RemoveAll(dir)
		start := time.Now()
		shards, err := r.spawnShards(dir)
		if err != nil {
			return passOut{}, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		stopAll := func() error {
			var first error
			for _, s := range shards {
				rss, err := s.stop()
				if rss > r.rssMB {
					r.rssMB = rss
				}
				if err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		tr := r.tracerFor(traced)
		obs := &streamObserver{base: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
			tr: tr, name: fmt.Sprintf("pass-%d", k)}
		hc := &http.Client{Transport: obs}
		var urls []string
		for _, s := range shards {
			urls = append(urls, s.url)
		}
		ex := newCellExecutor(r, k, traced, &svc.CampaignClient{Endpoints: urls, HTTP: hc})
		obs.span = ex.root.id()
		var fig bytes.Buffer
		t0 := time.Now()
		ferr := r.sz.figure(r.figOptions(&fig, ex))
		wall := time.Since(t0)
		p := ex.finish(wall, fig.Bytes(), ferr)
		p.lat = obs.lat
		p.layer["loadgen.sent"] = float64(p.attempted)
		if err := r.shardLayers(hc, urls, wall, p.layer); err != nil {
			stopAll()
			return p, err
		}
		hc.CloseIdleConnections()
		if err := stopAll(); err != nil {
			return p, err
		}
		last = ex
		return p, nil
	})
	if err != nil {
		return err
	}
	r.crossCheckFigure()
	return r.spotCheck(last)
}

// spawnShards starts two shards and waits until both are ready.
func (r *runner) spawnShards(dir string) ([]*shard, error) {
	cacheDir := filepath.Join(dir, "cache")
	campDir := filepath.Join(dir, "campaign")
	if err := os.MkdirAll(campDir, 0o755); err != nil {
		return nil, err
	}
	var shards []*shard
	for i := 0; i < 2; i++ {
		s, err := spawnShard(r.opt.dreamd, cacheDir, campDir, fmt.Sprintf("shard-%d", i))
		if err != nil {
			for _, s := range shards {
				s.kill()
			}
			return nil, err
		}
		shards = append(shards, s)
	}
	c := &http.Client{Timeout: 5 * time.Second}
	for _, s := range shards {
		if err := waitReady(c, s.url); err != nil {
			for _, s := range shards {
				s.kill()
			}
			return nil, err
		}
	}
	c.CloseIdleConnections()
	return shards, nil
}

// shardLayers folds the shards' /metrics counters into the pass's
// per-layer values: lease-ledger traffic, cache and service counters.
func (r *runner) shardLayers(c *http.Client, urls []string, wall time.Duration, layer map[string]float64) error {
	sum := make(map[string]float64)
	for _, u := range urls {
		m, err := scrapeMetrics(c, u)
		if err != nil {
			return fmt.Errorf("scraping %s/metrics: %w", u, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	cell := func(event string) float64 { return sum[`dreamd_campaign_cells_total{event="`+event+`"}`] }
	layer["harness.cells_leased"] = cell("leased")
	layer["harness.cells_stolen"] = cell("stolen")
	layer["harness.cells_peer_served"] = cell("peer_served")
	layer["harness.shard_busy_frac"] = sum["dreamd_campaign_cell_busy_seconds"] / (wall.Seconds() * float64(len(urls)))
	layer["runcache.mem_hits"] = sum["dreamd_cache_run_hits_total"]
	layer["runcache.misses"] = sum["dreamd_cache_run_misses_total"]
	layer["runcache.disk_hits"] = sum["dreamd_cache_disk_hits_total"]
	hits := layer["runcache.mem_hits"]
	if total := hits + layer["runcache.misses"]; total > 0 {
		layer["runcache.hit_ratio"] = hits / total
	}
	layer["svc.deduped"] = sum["dreamd_requests_deduped_total"]
	layer["svc.rejected"] = sum[`dreamd_requests_rejected_total{reason="queue_full"}`] +
		sum[`dreamd_requests_rejected_total{reason="breaker_open"}`] +
		sum[`dreamd_requests_rejected_total{reason="draining"}`]
	return nil
}

// crossCheckFigure requires the sharded figure to equal the in-process
// figure's golden digest for the same seed, when one is committed.
func (r *runner) crossCheckFigure() {
	if !r.sz.golden {
		return
	}
	g, ok, err := readGolden(r.goldenPath("fig19-quick-cold"))
	if err != nil {
		r.mismatch("%v", err)
		return
	}
	if ok && g.Digests["figure"] != r.digests["figure"] {
		r.mismatch("sharded figure differs from the in-process figure (fig19-quick-cold golden)")
	}
}

// spotCheck recomputes a spread of the last pass's distinct simulations
// in-process, concurrently, and requires each shard-served result byte for
// byte.
func (r *runner) spotCheck(ex *cellExecutor) error {
	if ex == nil || len(ex.sims) == 0 {
		r.mismatch("sharded pass produced no cells to spot-check")
		return nil
	}
	n := min(r.sz.spotChecks, len(ex.sims))
	var wg sync.WaitGroup
	errs := make([]error, n)
	for j := 0; j < n; j++ {
		i := int((r.seed() + uint64(j)*uint64(len(ex.sims))/uint64(n)) % uint64(len(ex.sims)))
		c, want := ex.sims[i], ex.results[i]
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got, err := exp.ExecCell(context.Background(), c)
			if err != nil {
				errs[j] = fmt.Errorf("recomputing %s: %w", cellName(c), err)
				return
			}
			gd, err1 := resultDigest(got)
			wd, err2 := resultDigest(want)
			if err := errors.Join(err1, err2); err != nil {
				errs[j] = err
				return
			}
			if gd != wd {
				errs[j] = fmt.Errorf("%s: shard result differs from in-process recomputation", cellName(c))
			}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.mismatch("%v", err)
		}
	}
	return nil
}
