package memctrl

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

// flatSched is the reference scheduler: two flat queues in enqueue order,
// rescanned in full on every pick and every minStart. The banked scheduler
// must produce bit-identical schedules to it.
type flatSched struct {
	c      *Controller
	readQ  []Request
	writeQ []Request
}

func newFlatSched(c *Controller) *flatSched { return &flatSched{c: c} }

func (s *flatSched) enqueue(r Request) {
	if r.IsWrite {
		s.writeQ = append(s.writeQ, r)
	} else {
		s.readQ = append(s.readQ, r)
	}
}

func (s *flatSched) lens() (int, int) { return len(s.readQ), len(s.writeQ) }

// startTime computes the earliest time request r could begin service, and
// whether it is a row-buffer hit.
func (s *flatSched) startTime(r Request) (Tick, bool) {
	dev := s.c.dev
	open := dev.OpenRow(r.Bank)
	switch {
	case open == int64(r.Row):
		return sim.MaxTick(r.Arrival, dev.EarliestColumn(r.Bank)), true
	case open != dram.NoRow:
		return sim.MaxTick(r.Arrival, dev.EarliestPrecharge(r.Bank)), false
	default:
		return sim.MaxTick(r.Arrival, dev.EarliestActivate(r.Bank)), false
	}
}

func (s *flatSched) pick(now Tick, fromWrite bool) (Request, Tick, bool) {
	q := &s.readQ
	if fromWrite {
		q = &s.writeQ
	}
	bestIdx := -1
	bestStart := sim.Forever
	bestHit := false
	for i := range *q {
		st, hit := s.startTime((*q)[i])
		if st > now {
			continue
		}
		better := false
		switch {
		case bestIdx < 0:
			better = true
		case hit && !bestHit:
			better = true
		case hit == bestHit && st < bestStart:
			better = true
		}
		if better {
			bestIdx, bestStart, bestHit = i, st, hit
		}
	}
	if bestIdx < 0 {
		return Request{}, 0, false
	}
	r := (*q)[bestIdx]
	*q = append((*q)[:bestIdx], (*q)[bestIdx+1:]...)
	return r, bestStart, true
}

func (s *flatSched) minStart(writes bool) Tick {
	q := s.readQ
	if writes {
		q = s.writeQ
	}
	w := sim.Forever
	for i := range q {
		if st, _ := s.startTime(q[i]); st < w {
			w = st
		}
	}
	return w
}

func (s *flatSched) dirtyBank(int) {}
func (s *flatSched) dirtyAll()     {}

// conservativeWake is nextWake without the quiescence fast-forward: once
// writes are eligible it keeps the queued reads in the bound, even while a
// drain held open by the write queue makes them ineligible, so the clock
// steps through every no-op wake the fast-forward skips.
func conservativeWake(c *Controller, now Tick) Tick {
	reads, writes := c.sched.lens()
	w := sim.MinTick(c.nextRefresh, c.sched.minStart(false))
	if writes > 0 && (c.draining || writes >= WriteHi || reads == 0) {
		w = sim.MinTick(w, c.sched.minStart(true))
	}
	if w <= now {
		w = now + 1
	}
	return w
}

// stressMit exercises every mitigation-op path deterministically so the
// scheduler equivalence test covers stalls, DRFMs, samples and NRRs, not
// just plain reads and writes.
type stressMit struct{ acts int }

func (m *stressMit) Name() string { return "stress" }
func (m *stressMit) OnActivate(now Tick, bank int, row uint32) Decision {
	m.acts++
	var d Decision
	if row%8 == 0 {
		d.Sample = true
	}
	switch {
	case m.acts%97 == 0:
		d.CloseNow = true
		d.PostOps = []Op{{Kind: OpDRFMsb, Bank: bank}}
	case m.acts%151 == 0:
		d.PreOps = []Op{{Kind: OpNRR, Bank: bank, Row: row}}
	case m.acts%211 == 0:
		d.CloseNow = true
		d.PostOps = []Op{{Kind: OpDRFMab}}
	case m.acts%263 == 0:
		d.PreOps = []Op{{Kind: OpExplicitSample, Bank: (bank + 5) % 32, Row: row + 1}}
	}
	return d
}
func (m *stressMit) OnSampled(Tick, int, uint32)           {}
func (m *stressMit) OnMitigations(Tick, []dram.Mitigation) {}
func (m *stressMit) OnRefresh(now Tick, ref uint64) []Op {
	if ref%3 == 0 {
		return []Op{{Kind: OpStallAll, Dur: sim.NS(100)}}
	}
	return nil
}
func (m *stressMit) StorageBits() int64 { return 0 }

// schedStats is the comparable counter portion of a run's observables.
type schedStats struct {
	acts  uint64
	hits  uint64
	reads uint64
	wris  uint64
	lat   Tick
	refs  uint64
	mits  uint64
	qr    int
	qw    int
}

// schedTrace is everything observable from one controller run.
type schedTrace struct {
	wakes []Tick
	dones []Tick
	schedStats
}

// dispatched is a request together with the tick at which the system hands
// it to the controller; Arrival is never earlier than that tick.
type dispatched struct {
	at Tick
	r  Request
}

// driveMode selects the references a drive substitutes: flat swaps in the
// flat scheduler, and conservative wakes the controller at conservativeWake
// instead of the bound Process returns.
type driveMode struct{ flat, conservative bool }

// driveSched feeds reqs (sorted by dispatch tick) into a fresh controller
// the way the system does: each request is enqueued at its dispatch tick and
// lowers the controller's wake to its arrival, and the controller runs only
// when its wake is due. Tokens must be the requests' indexes in reqs. It
// returns the full observable trace and the deepest any one bank's queue of
// demand reads grew.
func driveSched(t testing.TB, mode driveMode, mit Mitigator, reqs []dispatched, horizon Tick) (schedTrace, int) {
	t.Helper()
	dev, err := dram.NewSubChannel(dram.DefaultTimings(), 32)
	if err != nil {
		t.Fatal(err)
	}
	var tr schedTrace
	depth := make([]int, 32)
	maxDepth := 0
	c, err := New(DefaultConfig(), dev, mit, func(core int, token uint64, done Tick) {
		tr.dones = append(tr.dones, done)
		depth[reqs[token].r.Bank]--
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode.flat {
		c.sched = newFlatSched(c)
	}
	now, wake := Tick(0), Tick(0)
	i := 0
	for now < horizon {
		for i < len(reqs) && reqs[i].at <= now {
			r := reqs[i].r
			c.Enqueue(r)
			if r.Notify {
				if depth[r.Bank]++; depth[r.Bank] > maxDepth {
					maxDepth = depth[r.Bank]
				}
			}
			if r.Arrival < wake {
				wake = r.Arrival
			}
			i++
		}
		if wake <= now {
			if wake, err = c.Process(now); err != nil {
				t.Fatal(err)
			}
			if mode.conservative {
				wake = conservativeWake(c, now)
			}
			tr.wakes = append(tr.wakes, wake)
		}
		now = wake
		if i < len(reqs) && reqs[i].at < now {
			now = reqs[i].at
		}
	}
	tr.acts, tr.hits = c.Activations, c.RowHits
	tr.reads, tr.wris = c.ReadsServed, c.WritesServed
	tr.lat = c.LatencySum
	tr.refs = c.Device().Refreshes
	tr.mits = c.Device().MitigationCount
	tr.qr, tr.qw = c.QueueLens()
	return tr, maxDepth
}

// atArrival dispatches each request at its own arrival, so within a bank
// arrival order is enqueue order, which the system does not guarantee;
// it is the plain case.
func atArrival(reqs []Request) []dispatched {
	out := make([]dispatched, len(reqs))
	for i, r := range reqs {
		out[i] = dispatched{at: r.Arrival, r: r}
	}
	return out
}

// compareTraces requires two runs' observables to match exactly: every wake
// time, every completion time and every service counter.
func compareTraces(t testing.TB, label string, flat, bank schedTrace) {
	t.Helper()
	if len(flat.wakes) != len(bank.wakes) {
		t.Fatalf("%s: wake count flat=%d banked=%d", label, len(flat.wakes), len(bank.wakes))
	}
	for i := range flat.wakes {
		if flat.wakes[i] != bank.wakes[i] {
			t.Fatalf("%s: wake[%d] flat=%v banked=%v", label, i, flat.wakes[i], bank.wakes[i])
		}
	}
	if len(flat.dones) != len(bank.dones) {
		t.Fatalf("%s: completions flat=%d banked=%d", label, len(flat.dones), len(bank.dones))
	}
	for i := range flat.dones {
		if flat.dones[i] != bank.dones[i] {
			t.Fatalf("%s: done[%d] flat=%v banked=%v", label, i, flat.dones[i], bank.dones[i])
		}
	}
	if flat.schedStats != bank.schedStats {
		t.Errorf("%s: stats diverge\nflat   %+v\nbanked %+v", label, flat.schedStats, bank.schedStats)
	}
}

func randomReqs(seed int64, n int, horizon Tick) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 0, n)
	arr := Tick(0)
	for i := 0; i < n; i++ {
		arr += Tick(rng.Intn(int(horizon) / n * 2))
		w := rng.Intn(10) < 3
		reqs = append(reqs, Request{
			Arrival: arr,
			Bank:    rng.Intn(32),
			Row:     uint32(rng.Intn(16)),
			IsWrite: w,
			Core:    rng.Intn(8),
			Token:   uint64(i),
			Notify:  !w,
		})
	}
	return reqs
}

// TestSchedulerEquivalence drives the flat reference scheduler and the
// banked scheduler over identical randomized request streams (including
// mitigation ops, refreshes, write drains and bank conflicts) and requires
// the complete observable behaviour — every wake time, every completion
// time, all service counters — to match exactly.
func TestSchedulerEquivalence(t *testing.T) {
	horizon := 4 * dram.DefaultTimings().TREFI
	for _, seed := range []int64{1, 2, 3, 0x5eed, 0xbeef} {
		reqs := randomReqs(seed, 4000, horizon)
		flat, _ := driveSched(t, driveMode{flat: true}, &stressMit{}, atArrival(reqs), horizon)
		bank, _ := driveSched(t, driveMode{}, &stressMit{}, atArrival(reqs), horizon)

		compareTraces(t, fmt.Sprintf("seed %d", seed), flat, bank)
		if flat.reads == 0 || flat.wris == 0 || flat.mits == 0 || flat.refs == 0 {
			t.Errorf("seed %d: degenerate run %+v", seed, flat)
		}
	}
}

// TestSchedulerEquivalencePlain covers the no-mitigator fast path with a
// hotter row mix (more hits, MOP closes, drain flips).
func TestSchedulerEquivalencePlain(t *testing.T) {
	horizon := 2 * dram.DefaultTimings().TREFI
	for _, seed := range []int64{7, 11} {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 0, 3000)
		arr := Tick(0)
		for i := 0; i < 3000; i++ {
			arr += Tick(rng.Intn(40))
			w := rng.Intn(10) < 4
			reqs = append(reqs, Request{
				Arrival: arr,
				Bank:    rng.Intn(4), // few banks: heavy conflicts
				Row:     uint32(rng.Intn(3)),
				IsWrite: w,
				Token:   uint64(i),
				Notify:  !w,
			})
		}
		flat, _ := driveSched(t, driveMode{flat: true}, nil, atArrival(reqs), horizon)
		bank, _ := driveSched(t, driveMode{}, nil, atArrival(reqs), horizon)
		compareTraces(t, fmt.Sprintf("seed %d", seed), flat, bank)
	}
}

// streamParams shapes one core's request stream.
type streamParams struct {
	n        int  // requests
	gap      int  // maximum ticks between arrivals (uniform in [0, gap))
	lead     Tick // ticks each request is dispatched ahead of its arrival
	banks    int  // banks drawn from, uniformly
	rows     int  // rows drawn from, uniformly
	writePct int  // share of writes, in percent
}

// coreStream generates one core's requests: arrivals monotone, each request
// dispatched p.lead ticks ahead of its arrival.
func coreStream(rng *rand.Rand, core int, p streamParams) []dispatched {
	out := make([]dispatched, 0, p.n)
	arr := p.lead
	for i := 0; i < p.n; i++ {
		arr += Tick(rng.Intn(p.gap))
		w := rng.Intn(100) < p.writePct
		out = append(out, dispatched{at: arr - p.lead, r: Request{
			Arrival: arr,
			Bank:    rng.Intn(p.banks),
			Row:     uint32(rng.Intn(p.rows)),
			IsWrite: w,
			Core:    core,
			Notify:  !w,
		}})
	}
	return out
}

// interleave merges per-core streams into one dispatch-ordered stream (ties
// broken by core), numbers the tokens, and returns it with a horizon long
// enough for every request to be served even if all of them miss in one
// bank: two row cycles per request plus two refresh intervals.
func interleave(streams ...[]dispatched) ([]dispatched, Tick) {
	var all []dispatched
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].r.Core < all[j].r.Core
	})
	last := Tick(0)
	for i := range all {
		all[i].r.Token = uint64(i)
		last = sim.MaxTick(last, all[i].r.Arrival)
	}
	ti := dram.DefaultTimings()
	return all, last + Tick(len(all))*2*ti.TRC + 2*ti.TREFI
}

// spreadTraffic is the system's ordinary shape: eight cores, each with its
// own lead, interleaved, so within a bank arrival order and enqueue order
// disagree.
func spreadTraffic(seed int64, n, banks, rows int, lead Tick, writePct int) ([]dispatched, Tick) {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]dispatched, 8)
	for core := range streams {
		streams[core] = coreStream(rng, core, streamParams{
			n: n / 8, gap: 8 * 48, lead: 120 + Tick(rng.Int63n(int64(lead)+1)),
			banks: banks, rows: rows, writePct: writePct,
		})
	}
	return interleave(streams...)
}

// hotBankTraffic is the attack shape: core 0 hammers two alternating rows of
// bank 0 in bursts deep enough to queue 30+ reads behind one bank, while
// three background cores with their own leads spread reads and writes over
// the hot bank and seven others.
func hotBankTraffic(seed int64) ([]dispatched, Tick) {
	rng := rand.New(rand.NewSource(seed))
	const bursts, burst = 12, 40
	attack := make([]dispatched, 0, bursts*burst)
	arr := Tick(120)
	for i := 0; i < bursts*burst; i++ {
		if i%burst == 0 {
			arr += sim.NS(2500)
		}
		arr += Tick(rng.Intn(24))
		attack = append(attack, dispatched{at: arr - 120, r: Request{
			Arrival: arr, Bank: 0, Row: uint32(100 + 2*(i&1)), Notify: true,
		}})
	}
	streams := [][]dispatched{attack}
	for core := 1; core <= 3; core++ {
		streams = append(streams, coreStream(rng, core, streamParams{
			n: 500, gap: 1200, lead: 120 + Tick(rng.Intn(900)),
			banks: 8, rows: 8, writePct: 30,
		}))
	}
	return interleave(streams...)
}

// checkDispatched runs reqs through both schedulers, with the stress
// mitigator and without one, and requires identical observables.
func checkDispatched(t testing.TB, label string, reqs []dispatched, horizon Tick) (depth int) {
	t.Helper()
	for _, withMit := range []bool{true, false} {
		var fm, bm Mitigator
		if withMit {
			fm, bm = &stressMit{}, &stressMit{}
		}
		flat, d := driveSched(t, driveMode{flat: true}, fm, reqs, horizon)
		bank, _ := driveSched(t, driveMode{}, bm, reqs, horizon)
		compareTraces(t, fmt.Sprintf("%s (mitigator %v)", label, withMit), flat, bank)
		if flat.qr != 0 || flat.qw != 0 {
			t.Fatalf("%s: %d reads and %d writes still queued at the horizon", label, flat.qr, flat.qw)
		}
		depth = d
	}
	return depth
}

// outOfOrder counts requests that arrive before an older queued request of
// the same bank would — the case that separates enqueue order from arrival
// order, which the system produces and atArrival cannot.
func outOfOrder(reqs []dispatched) int {
	latest := map[int]Tick{}
	n := 0
	for _, d := range reqs {
		if d.r.Arrival < latest[d.r.Bank] {
			n++
		}
		latest[d.r.Bank] = sim.MaxTick(latest[d.r.Bank], d.r.Arrival)
	}
	return n
}

// TestSchedulerEquivalenceDispatched drives both schedulers with the traffic
// the system sends: requests enqueued ahead of their arrival by per-core
// leads and interleaved across cores, and a hot-bank attack stream whose
// bank queue runs 30+ deep.
func TestSchedulerEquivalenceDispatched(t *testing.T) {
	for _, seed := range []int64{1, 2, 0x5eed} {
		reqs, horizon := spreadTraffic(seed, 4000, 32, 16, 2000, 30)
		n := outOfOrder(reqs)
		if n == 0 {
			t.Fatalf("spread seed %d: no request arrives ahead of an older one in its bank", seed)
		}
		depth := checkDispatched(t, fmt.Sprintf("spread seed %d", seed), reqs, horizon)
		t.Logf("spread seed %d: %d of %d requests out of order, deepest bank %d reads", seed, n, len(reqs), depth)
	}
	for _, seed := range []int64{3, 0xbeef} {
		reqs, horizon := hotBankTraffic(seed)
		n := outOfOrder(reqs)
		if n == 0 {
			t.Fatalf("hot-bank seed %d: no request arrives ahead of an older one in its bank", seed)
		}
		depth := checkDispatched(t, fmt.Sprintf("hot-bank seed %d", seed), reqs, horizon)
		if depth < 30 {
			t.Fatalf("hot-bank seed %d: deepest bank queue %d reads, want at least 30", seed, depth)
		}
		t.Logf("hot-bank seed %d: %d of %d requests out of order, deepest bank %d reads", seed, n, len(reqs), depth)
	}
}

// TestFastForwardEquivalence proves the quiescence fast-forward is
// schedule-neutral: nextWake leaves queued reads out of the bound while a
// write drain is open, so the controller wakes less often, but every REF
// boundary, drain decision and command lands on the same tick as when it
// wakes at the conservative bound. Both drives must give the same
// completions and counters, and the fast-forward no more wakes.
func TestFastForwardEquivalence(t *testing.T) {
	type shape struct {
		label   string
		reqs    []dispatched
		horizon Tick
	}
	var shapes []shape
	for _, seed := range []int64{1, 0x5eed} {
		horizon := 4 * dram.DefaultTimings().TREFI
		shapes = append(shapes, shape{fmt.Sprintf("random seed %d", seed), atArrival(randomReqs(seed, 4000, horizon)), horizon})
	}
	for _, writePct := range []int{30, 70} {
		reqs, horizon := spreadTraffic(7, 4000, 32, 16, 2000, writePct)
		shapes = append(shapes, shape{fmt.Sprintf("spread %d%% writes", writePct), reqs, horizon})
	}
	reqs, horizon := hotBankTraffic(3)
	shapes = append(shapes, shape{"hot-bank", reqs, horizon})

	skipped := 0
	for _, sh := range shapes {
		for _, withMit := range []bool{true, false} {
			var fm, cm Mitigator
			if withMit {
				fm, cm = &stressMit{}, &stressMit{}
			}
			label := fmt.Sprintf("%s (mitigator %v)", sh.label, withMit)
			ff, _ := driveSched(t, driveMode{}, fm, sh.reqs, sh.horizon)
			cons, _ := driveSched(t, driveMode{conservative: true}, cm, sh.reqs, sh.horizon)
			if !slices.Equal(ff.dones, cons.dones) || ff.schedStats != cons.schedStats {
				t.Errorf("%s: fast-forward changed the schedule:\nconservative %+v\nfast-forward %+v",
					label, cons.schedStats, ff.schedStats)
			}
			if len(ff.wakes) > len(cons.wakes) {
				t.Errorf("%s: fast-forward raised wakes %d -> %d", label, len(cons.wakes), len(ff.wakes))
			}
			skipped += len(cons.wakes) - len(ff.wakes)
		}
	}
	if skipped <= 0 {
		t.Fatal("the fast-forward skipped no wake on any shape; the comparison shows nothing")
	}
	t.Logf("the fast-forward skipped %d wakes over %d drives", skipped, 2*len(shapes))
}

// FuzzSchedulerEquivalence varies the dispatched-traffic shape: seed, bank
// spread, rows, lead and write share.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(16), uint16(2000), uint8(30))
	f.Add(int64(2), uint8(1), uint8(2), uint16(4000), uint8(10))
	f.Add(int64(3), uint8(4), uint8(3), uint16(600), uint8(50))
	f.Add(int64(4), uint8(8), uint8(64), uint16(0), uint8(0))
	f.Add(int64(5), uint8(2), uint8(1), uint16(9000), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, banks, rows uint8, lead uint16, writePct uint8) {
		reqs, horizon := spreadTraffic(seed, 800, 1+int(banks)%32, 1+int(rows)%64, Tick(lead), int(writePct)%101)
		checkDispatched(t, "fuzz", reqs, horizon)
	})
}
