package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	dream "repro"
	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/svc"
)

// svcConfig is a facade Config in dreamd's wire form.
type svcConfig struct {
	Workload        string `json:"workload"`
	Scheme          string `json:"scheme"`
	TRH             int    `json:"trh"`
	Cores           int    `json:"cores"`
	AccessesPerCore uint64 `json:"accessespercore"`
	Seed            uint64 `json:"seed"`
}

// svcReq is one request the load generator sends.
type svcReq struct {
	path string // /v1/simulate or /v1/compare
	cfg  svcConfig
	key  string // the benchmark's identity of the request: path + body
	body []byte
	cold bool // a seed no earlier request used: the service must simulate
}

func newSvcReq(path string, cfg svcConfig, cold bool) svcReq {
	body, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return svcReq{path: path, cfg: cfg, key: path + string(body), body: body, cold: cold}
}

// served is a response's result payload, reduced to what the checks need.
type served struct {
	digest string  // SHA-256 of the result payload bytes
	inst   float64 // retired instructions in the result(s)
	run    []stats.RunResult
}

// svcClient posts requests over at most conns keep-alive connections.
type svcClient struct {
	http *http.Client
	base string
}

func newSvcClient(base string, conns int) *svcClient {
	return &svcClient{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
}

func (c *svcClient) close() { c.http.CloseIdleConnections() }

// do sends one request; decode also decodes the result to count its
// instructions (fill and cold requests; warm ones reuse the fill's count).
func (c *svcClient) do(q svcReq, decode bool) (served, error) {
	resp, err := c.http.Post(c.base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return served{}, err
	}
	defer resp.Body.Close()
	var env struct {
		OK     bool            `json:"ok"`
		Result json.RawMessage `json:"result"`
		Error  *struct {
			Kind    string `json:"kind"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return served{}, fmt.Errorf("%s: decoding response: %w", q.path, err)
	}
	if resp.StatusCode != http.StatusOK || !env.OK {
		msg := resp.Status
		if env.Error != nil {
			msg = env.Error.Kind + ": " + env.Error.Message
		}
		return served{}, fmt.Errorf("%s: %s", q.path, msg)
	}
	out := served{digest: sha(env.Result)}
	if decode {
		switch q.path {
		case "/v1/compare":
			var cr struct{ Base, Scheme stats.RunResult }
			if err := json.Unmarshal(env.Result, &cr); err != nil {
				return served{}, err
			}
			out.run = []stats.RunResult{cr.Base, cr.Scheme}
		default:
			var rr stats.RunResult
			if err := json.Unmarshal(env.Result, &rr); err != nil {
				return served{}, err
			}
			out.run = []stats.RunResult{rr}
		}
		out.inst, _ = resultCounters(out.run)
	}
	return out, nil
}

// readyz reports dreamd's readiness and journaled warm entries.
func (c *svcClient) readyz() (bool, int, error) {
	resp, err := c.http.Get(c.base + "/readyz")
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	var rd struct {
		Ready       bool `json:"ready"`
		WarmEntries int  `json:"warm_entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		return false, 0, err
	}
	return rd.Ready && resp.StatusCode == http.StatusOK, rd.WarmEntries, nil
}

// svcServer is an in-process dreamd: svc's Service behind its Handler on a
// loopback listener.
type svcServer struct {
	svc  *svc.Service
	srv  *http.Server
	url  string
	done chan error
}

func startSvc(dir string) (*svcServer, error) {
	s, err := svc.New(svc.Options{
		Workers:     runtime.GOMAXPROCS(0),
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	})
	if err != nil {
		return nil, err
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return &svcServer{svc: s, srv: hs, url: "http://" + ln.Addr().String(), done: done}, nil
}

// stop closes the listener, lets in-flight handlers finish, and drains the
// service.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if serr := s.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// svcPlan is the service workload's request population, all derived from
// the seed.
type svcPlan struct {
	sims     []svcReq // warm simulate configurations (filled in set-up)
	compares []svcReq // warm compare configurations (filled in set-up)
}

func (r *runner) svcPlan() svcPlan {
	var p svcPlan
	for _, wl := range r.sz.svcWorkloads {
		for _, sc := range r.sz.svcSchemes {
			p.sims = append(p.sims, newSvcReq("/v1/simulate", r.svcCfg(wl, sc, r.seed()), false))
		}
		for _, sc := range r.sz.svcCompare {
			p.compares = append(p.compares, newSvcReq("/v1/compare", r.svcCfg(wl, sc, r.seed()), false))
		}
	}
	return p
}

func (r *runner) svcCfg(wl, scheme string, seed uint64) svcConfig {
	return svcConfig{Workload: wl, Scheme: scheme, TRH: 1000, Cores: 8,
		AccessesPerCore: r.sz.svcAccesses, Seed: seed}
}

// mix64 is the SplitMix64 finaliser, spreading nearby inputs over the seed
// space.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// steadyReq is the i-th open-loop request: one in ten is a simulate with a
// fresh seed (a cold miss the service must simulate), two in ten a warm
// compare, the rest a warm simulate of a configuration filled in set-up.
func (p svcPlan) steadyReq(r *runner, rng *rand.Rand, i int) svcReq {
	switch i % 10 {
	case 0:
		base := p.sims[(i/10)%len(p.sims)].cfg
		seed := mix64(r.seed()^uint64(i)) | 1
		return newSvcReq("/v1/simulate", r.svcCfg(base.Workload, base.Scheme, seed), true)
	case 3, 7:
		return p.compares[rng.IntN(len(p.compares))]
	default:
		return p.sims[rng.IntN(len(p.sims))]
	}
}

// warmReq draws a warm request in the steady mix's 7:2 simulate:compare ratio.
func (p svcPlan) warmReq(rng *rand.Rand) svcReq {
	if rng.IntN(9) < 2 {
		return p.compares[rng.IntN(len(p.compares))]
	}
	return p.sims[rng.IntN(len(p.sims))]
}

// runDreamdMixed drives an in-process dreamd over loopback HTTP with NumCPU
// keep-alive connections. Set-up fills a fresh disk cache through the service
// and restarts it warm. The measurement then alternates, in svcCycles
// cycles, an open-loop segment at svcRate — latency timed from each request's
// due time — with closed-loop bursts of warm requests, so both metrics sample
// the whole run rather than one end of it.
func runDreamdMixed(r *runner) error {
	plan := r.svcPlan()
	fill := append(append([]svcReq(nil), plan.sims...), plan.compares...)
	conns := runtime.GOMAXPROCS(0)

	var server *svcServer
	var filled map[string]served
	for i := 0; i < r.sz.setupReps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("dreamd-%d", i))
		start := time.Now()
		s, got, err := r.fillAndRestart(dir, fill, conns)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		if filled != nil {
			for k, v := range got {
				if filled[k].digest != v.digest {
					r.mismatch("set-up %d: fill result for %s differs", i, k)
				}
			}
		}
		filled = got
		if i < r.sz.setupReps-1 {
			if err := s.stop(); err != nil {
				return err
			}
			os.RemoveAll(dir)
			continue
		}
		server = s
	}
	fillDigests := make(map[string]string, len(filled))
	for k, v := range filled {
		fillDigests[k] = v.digest
	}
	r.digests["fill"] = combinedDigest(fillDigests)

	client := newSvcClient(server.url, conns)
	defer client.close()
	snap0 := server.svc.Snapshot()
	cs0 := exp.CacheStats()
	ev0 := exp.SimEvents()
	steadyBudget := r.budget() * 5 / 6
	burstBudget := (r.budget() - steadyBudget) / svcCycles
	st := r.newSteady(plan, max(svcCycles, int(math.Round(r.sz.svcRate*steadyBudget.Seconds()))))
	n := len(st.reqs)
	for c := 0; c < svcCycles; c++ {
		if err := r.segment(st, c, c*n/svcCycles, (c+1)*n/svcCycles, client, server, conns); err != nil {
			return err
		}
		err := r.passes(burstBudget, func(k int, traced bool) (passOut, error) {
			return r.burst(client, plan, filled, c*1000+k, traced, conns)
		})
		if err != nil {
			return err
		}
	}
	cold := r.finishSteady(st, filled)
	cc := cacheCounters(cs0, exp.CacheStats())
	for k, v := range cc {
		r.layer[k] = v
	}
	r.layer["runcache.hit_ratio"] = hitRatio(cc)
	r.layer["system.events"] = float64(exp.SimEvents() - ev0)
	// Closed-loop capacity over the connections: the service's highest
	// sustainable warm request rate.
	r.layer["svc.capacity_rps"] = float64(r.sz.svcBurst) / median(r.walls)
	snap := server.svc.Snapshot()
	r.layer["svc.deduped"] = float64(snap.Deduped - snap0.Deduped)
	r.layer["svc.rejected"] = float64((snap.RejectedQueue + snap.RejectedBreaker + snap.RejectedDrain) -
		(snap0.RejectedQueue + snap0.RejectedBreaker + snap0.RejectedDrain))
	r.layer["loadgen.sent"] = float64(r.attempted)
	if err := server.stop(); err != nil {
		return err
	}
	return r.verifyCold(cold)
}

// svcCycles is how many open-loop segments, each followed by bursts, the
// service measurement is split into.
const svcCycles = 5

// fillAndRestart is one set-up: start a service on a fresh cache directory,
// fill it with every warm configuration, stop it, drop the process's
// in-memory run cache, and restart the service on the same directory (a warm
// restart), returning once it reports the fill journaled and ready.
func (r *runner) fillAndRestart(dir string, fill []svcReq, conns int) (*svcServer, map[string]served, error) {
	s, err := startSvc(dir)
	if err != nil {
		return nil, nil, err
	}
	c := newSvcClient(s.url, conns)
	got := make(map[string]served, len(fill))
	var mu sync.Mutex
	var firstErr error
	closedLoop(len(fill), conns, func(_, i int) {
		out, err := c.do(fill[i], true)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("filling %s: %w", fill[i].key, err)
		}
		got[fill[i].key] = out
	})
	c.close()
	if err := s.stop(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	exp.ResetCache()
	s, err = startSvc(dir)
	if err != nil {
		return nil, nil, err
	}
	c = newSvcClient(s.url, 1)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready, warm, err := c.readyz()
		if err == nil && ready && warm >= len(fill) {
			return s, got, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, nil, fmt.Errorf("restarted service not ready with %d warm entries (ready=%v warm=%d err=%v)",
				len(fill), ready, warm, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// coldOut is one cold request's outcome, kept for recomputation.
type coldOut struct {
	req    svcReq
	digest string
}

// steady is the open-loop schedule and its outcomes, filled in segment by
// segment.
type steady struct {
	reqs     []svcReq
	tier     []string // cold, disk (first touch after the restart) or mem
	lat, lag []float64
	outs     []served
	errs     []error
	depthMax int64
}

func (r *runner) newSteady(plan svcPlan, n int) *steady {
	st := &steady{reqs: make([]svcReq, n), tier: make([]string, n), lat: make([]float64, n),
		lag: make([]float64, n), outs: make([]served, n), errs: make([]error, n)}
	rng := rand.New(rand.NewPCG(r.seed(), 0x57ead))
	touched := make(map[string]bool)
	for i := range st.reqs {
		q := plan.steadyReq(r, rng, i)
		st.reqs[i] = q
		switch {
		case q.cold:
			st.tier[i] = "cold"
		case !touched[q.key]:
			st.tier[i] = "disk"
			touched[q.key] = true
		default:
			st.tier[i] = "mem"
		}
	}
	return st
}

// segment sends requests lo..hi-1 of the schedule at svcRate, open loop:
// each request is due at a fixed offset from the segment's start, queued at
// its due time for the next free connection, and timed from its due time, so
// a stall delays and counts against every request behind it.
func (r *runner) segment(st *steady, cycle, lo, hi int, c *svcClient, server *svcServer, conns int) error {
	traced := r.opt.trace
	tr := r.tracerFor(traced)
	var stop func()
	if traced {
		var err error
		if stop, err = r.startProfile(fmt.Sprintf("steady%d", cycle)); err != nil {
			return err
		}
	}
	trace := fmt.Sprintf("steady-%d", cycle)
	phase := tr.start(trace, 0, "steady")
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-pollDone:
					return
				case <-t.C:
					st.depthMax = max(st.depthMax, int64(server.svc.Snapshot().QueueDepth))
				}
			}
		}()
	}

	interval := time.Duration(float64(time.Second) / r.sz.svcRate)
	queue := make(chan int, hi-lo) // one slot per request: the dispatcher never blocks
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i-lo) * interval) }
	go func() {
		defer close(queue)
		for i := lo; i < hi; i++ {
			waitUntil(due(i))
			st.lag[i] = float64(time.Since(due(i))) / float64(time.Millisecond)
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := st.reqs[i]
				sp := tr.start(fmt.Sprintf("req-%d", i), phase.id(), "request")
				st.outs[i], st.errs[i] = c.do(q, q.cold)
				st.lat[i] = float64(time.Since(due(i))) / float64(time.Millisecond)
				sp.end(map[string]any{"path": q.path, "tier": st.tier[i],
					"scheme": q.cfg.Scheme, "workload": q.cfg.Workload})
			}
		}()
	}
	wg.Wait()
	phase.end(map[string]any{"requests": hi - lo})
	close(pollDone)
	pollWG.Wait()
	if stop != nil {
		stop()
	}
	return nil
}

// finishSteady checks every open-loop response — warm ones against the
// fill, cold ones kept for recomputation — and folds the phase into the run.
func (r *runner) finishSteady(st *steady, filled map[string]served) []coldOut {
	byTier := make(map[string][]float64)
	digests := make(map[string]string)
	var cold []coldOut
	var coldRuns []stats.RunResult
	for i, q := range st.reqs {
		r.attempted++
		if st.errs[i] != nil {
			r.failed++
			r.mismatch("steady request %d (%s): %v", i, q.key, st.errs[i])
			continue
		}
		byTier[st.tier[i]] = append(byTier[st.tier[i]], st.lat[i])
		digests[q.key] = st.outs[i].digest
		if q.cold {
			cold = append(cold, coldOut{req: q, digest: st.outs[i].digest})
			coldRuns = append(coldRuns, st.outs[i].run...)
		} else if want := filled[q.key].digest; st.outs[i].digest != want {
			r.failed++
			r.mismatch("steady request %d (%s): result differs from the fill", i, q.key)
		}
	}
	r.lat = append(r.lat, st.lat...)
	r.lag = append(r.lag, st.lag...)
	r.digests["steady"] = combinedDigest(digests)
	_, counters := resultCounters(coldRuns)
	for k, v := range counters {
		r.counters[k] = v
	}
	attrs := map[string]any{}
	for t, xs := range byTier {
		r.layer["svc.latency_"+t+"_p50_ms"] = median(xs)
		attrs[t+"_n"] = len(xs)
		attrs[t+"_p50_ms"] = median(xs)
	}
	r.tr.start("steady", 0, "latency_by_tier").end(attrs)
	if r.opt.trace {
		r.layer["svc.queue_depth_max"] = float64(st.depthMax)
	}
	return cold
}

// waitUntil returns at t. Go's timers wake up to a millisecond late on
// Linux, several times a warm request's service time, so the last stretch is
// spun (1.5 ms per request: under 8% of one CPU at 50 rps).
func waitUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// burst is one closed-loop pass: svcBurst warm requests over the
// connections, back to back.
func (r *runner) burst(c *svcClient, plan svcPlan, filled map[string]served, k int, traced bool, conns int) (passOut, error) {
	rng := rand.New(rand.NewPCG(r.seed(), 0xb0057+uint64(k)))
	reqs := make([]svcReq, r.sz.svcBurst)
	var inst float64
	for i := range reqs {
		reqs[i] = plan.warmReq(rng)
		inst += filled[reqs[i].key].inst
	}
	tr := r.tracerFor(traced)
	trace := fmt.Sprintf("burst-%d", k)
	root := tr.start(trace, 0, "burst")
	outs := make([]served, len(reqs))
	errs := make([]error, len(reqs))
	start := time.Now()
	closedLoop(len(reqs), conns, func(_, i int) {
		sp := tr.start(trace, root.id(), "request")
		outs[i], errs[i] = c.do(reqs[i], false)
		sp.end(map[string]any{"path": reqs[i].path})
	})
	wall := time.Since(start)
	root.end(map[string]any{"requests": len(reqs)})
	p := passOut{wall: wall, inst: inst, attempted: len(reqs), layer: map[string]float64{}}
	for i, q := range reqs {
		if errs[i] != nil {
			p.failed++
			r.mismatch("burst %d request %d (%s): %v", k, i, q.key, errs[i])
		} else if outs[i].digest != filled[q.key].digest {
			p.failed++
			r.mismatch("burst %d request %d (%s): result differs from the fill", k, i, q.key)
		}
	}
	return p, nil
}

// verifyCold recomputes a spread of the cold requests in-process with the
// run cache off and requires the served payload byte for byte.
func (r *runner) verifyCold(cold []coldOut) error {
	if len(cold) == 0 {
		r.mismatch("steady phase sent no cold request")
		return nil
	}
	was := exp.SetCacheEnabled(false)
	defer exp.SetCacheEnabled(was)
	checks := min(4, len(cold))
	for j := 0; j < checks; j++ {
		co := cold[j*len(cold)/checks]
		cfg := co.req.cfg
		res, err := dream.SimulateContext(context.Background(), dream.Config{
			Workload: cfg.Workload, Scheme: dream.SchemeID(cfg.Scheme), TRH: cfg.TRH,
			Cores: cfg.Cores, AccessesPerCore: cfg.AccessesPerCore, Seed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("recomputing %s: %w", co.req.key, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if sha(b) != co.digest {
			r.mismatch("cold request %s: served result differs from recomputation", co.req.key)
		}
	}
	return nil
}
