// Package obs is the observability layer of the simulation stack: per-bank
// stall attribution, epoch time-series sampling, and pluggable exporters.
//
// The paper's whole argument is about *where* stall time goes — an NRR
// stalls one bank for 240 ns, a DRFMsb stalls eight, a DRFMab stalls all 32
// (§4, Table 2) — but end-of-run scalar sums cannot show which banks paid
// for a mitigation or when in the refresh window the cost landed. This
// package records both, without touching a run's results: metrics-on and
// metrics-off simulations are bit-identical in stats.RunResult (proven by
// TestMetricsBitIdentity), and with no recorder attached every hook in the
// controller is a single nil check, so the off path stays the pre-obs hot
// path (BenchmarkMitigatedRunMetricsOff/On).
//
// One obs.Run is created per simulation. The memory controller for each
// sub-channel feeds a SubRecorder (flat per-bank arrays, no maps on the hot
// path); sub-channel 0's periodic REF drives the epoch sampler, which
// snapshots IPC, bandwidth, mitigation rate, and stall totals into a ring
// buffer once per EpochRefs refresh intervals. At the end of the run the
// collected state is frozen into a Report and handed to the configured
// exporters (JSONL, CSV, Prometheus text — see export.go) and callbacks.
package obs

import (
	"repro/internal/sim"
)

// Tick aliases sim.Tick.
type Tick = sim.Tick

// Cause labels where a bank's stalled time came from. The mitigation causes
// (everything except CauseREF and CauseQueue) partition the controller's
// MitStallBank counter exactly: summing a report's per-bank mitigation-stall
// ticks reproduces it to the tick (see TestStallAttributionSums).
type Cause uint8

// Stall causes.
const (
	// CauseREF is periodic refresh: every bank stalls tRFC per REF.
	CauseREF Cause = iota
	// CauseNRR is the hypothetical Nearby-Row-Refresh: one bank, tNRR.
	CauseNRR
	// CauseDRFMsb is a same-bank DRFM: 8 banks, tDRFMsb each.
	CauseDRFMsb
	// CauseDRFMab is an all-bank DRFM: 32 banks, tDRFMab each.
	CauseDRFMab
	// CauseSample is an explicit sample (dummy ACT + Pre+Sample): one bank
	// for a full row cycle.
	CauseSample
	// CauseGang is a DREAM-C/ABACuS gang round (explicit-sample burst plus
	// DRFMab): all banks for the round duration.
	CauseGang
	// CauseABO is PRAC's Alert-Back-Off (OpStallAll): all banks.
	CauseABO
	// CauseQueue is time a request spent between arrival and the start of
	// its service — queueing plus timing-constraint wait. It is attribution
	// of *request* latency, not bank blockage, and is therefore excluded
	// from the MitStallBank equivalence.
	CauseQueue
	// NumCauses bounds the per-cause arrays.
	NumCauses
)

var causeNames = [NumCauses]string{
	"ref", "nrr", "drfmsb", "drfmab", "sample", "gang", "abo", "queue",
}

// String returns the export label for the cause.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// MitigationCauses lists the causes whose per-bank sums partition the
// controller's MitStallBank counter.
var MitigationCauses = []Cause{CauseNRR, CauseDRFMsb, CauseDRFMab, CauseSample, CauseGang, CauseABO}

// LatencyBuckets is the number of power-of-two read-latency histogram
// buckets: bucket i counts demand reads with latency in [2^i, 2^(i+1)) ns,
// except the last, which absorbs everything larger.
const LatencyBuckets = 16

// Event is one sampled mitigation-trace record: a mitigation op issued by a
// controller, or one victim-refresh performed by the device. The same stream
// the security auditor consumes internally, surfaced for dashboards.
type Event struct {
	// At is the simulation tick of the event.
	At Tick `json:"at"`
	// Sub is the sub-channel index.
	Sub int `json:"sub"`
	// Kind is the op kind ("nrr", "drfmsb", "drfmab", "sample", "gang",
	// "abo") or "mitigate" for a completed victim-refresh.
	Kind string `json:"kind"`
	// Bank is the target bank (the commanding bank for multi-bank ops).
	Bank int `json:"bank"`
	// Row is the target row, where the op names one (otherwise 0).
	Row uint32 `json:"row"`
}

// Options selects what a run collects and where it exports. The zero value
// with Enabled collection means: sample every 16 REFs into a 4096-epoch
// ring, export nowhere (programmatic access via OnReport/Report only).
type Options struct {
	// EpochRefs is the sampling period in REF intervals: one epoch snapshot
	// per EpochRefs REFs of sub-channel 0 (default 16 ≈ 62 µs simulated).
	EpochRefs int
	// RingSize bounds retained epoch samples; older epochs are dropped
	// oldest-first and counted in Report.DroppedEpochs (default 4096).
	RingSize int

	// Dir and Formats select per-run file exporters: for each format in
	// Formats ("jsonl", "csv", "prom") one file named after the run identity
	// is written under Dir at the end of the run.
	Dir     string
	Formats []string
	// Exporters are additional programmatic sinks invoked with the final
	// Report.
	Exporters []Exporter
	// OnReport, when non-nil, receives the final Report before exporters
	// run.
	OnReport func(*Report)

	// OnEvent, when non-nil, receives every EventEvery-th mitigation event.
	// It is invoked from the simulation goroutine; when runs execute in
	// parallel with a shared Options value it must be goroutine-safe.
	OnEvent func(Event)
	// EventEvery samples the event trace 1-in-N (default 1 = every event).
	EventEvery int
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.EpochRefs <= 0 {
		o.EpochRefs = 16
	}
	if o.RingSize <= 0 {
		o.RingSize = 4096
	}
	if o.EventEvery <= 0 {
		o.EventEvery = 1
	}
	return o
}

// Meta identifies the run a recorder observes.
type Meta struct {
	Scheme   string
	Workload string
	TRH      int
	Seed     uint64
	// Subs and Banks are the sub-channel count and banks per sub-channel.
	Subs  int
	Banks int
}

// DeviceTotals is the cumulative device-counter snapshot the epoch sampler
// reads through Sources.
type DeviceTotals struct {
	Reads, Writes uint64
	Mitigations   uint64
	BusBusy       Tick
}

// Sources are the cumulative-counter closures the system installs so epoch
// samples can attribute IPC and bandwidth; a Run without bound sources
// (unit tests) still records stall and command deltas.
type Sources struct {
	// Retired reports total instructions retired so far, over all cores.
	Retired func() int64
	// Device reports device counters summed over all sub-channels.
	Device func() DeviceTotals
}

// Run collects one simulation's metrics. It is not goroutine-safe: one Run
// belongs to one simulation, which is single-threaded.
type Run struct {
	opts Options
	meta Meta
	subs []*SubRecorder

	src     Sources
	epochs  series
	sampled lastSample

	events uint64 // total mitigation events seen (pre-sampling)
}

// lastSample is the previous cumulative snapshot the sampler diffs against.
type lastSample struct {
	at      Tick
	ref     uint64
	retired int64
	dev     DeviceTotals
	stall   Tick
	mits    uint64
}

// NewRun builds a recorder for one simulation.
func NewRun(opts Options, meta Meta) *Run {
	r := &Run{opts: opts.withDefaults(), meta: meta}
	r.epochs.init(r.opts.RingSize)
	r.subs = make([]*SubRecorder, meta.Subs)
	for i := range r.subs {
		s := &SubRecorder{run: r, sub: i, banks: meta.Banks}
		for c := range s.stall {
			s.stall[c] = make([]uint64, meta.Banks)
		}
		s.acts = make([]uint64, meta.Banks)
		s.hits = make([]uint64, meta.Banks)
		s.mits = make([]uint64, meta.Banks)
		s.trace = r.opts.OnEvent != nil
		r.subs[i] = s
	}
	return r
}

// Meta reports the run identity the recorder was built with.
func (r *Run) Meta() Meta { return r.meta }

// Sub returns the recorder for sub-channel i.
func (r *Run) Sub(i int) *SubRecorder { return r.subs[i] }

// Bind installs the cumulative-counter sources (called by system.New).
func (r *Run) Bind(src Sources) { r.src = src }

// SetDeviceBankStats records the device's per-bank ACT and mitigation
// counters for sub-channel sub (called once at the end of the run; device
// ACTs include explicit-sample dummy activations, unlike the demand ACTs
// the SubRecorder counts itself).
func (r *Run) SetDeviceBankStats(sub int, acts, mits []uint64) {
	s := r.subs[sub]
	s.deviceActs = append([]uint64(nil), acts...)
	s.deviceMits = append([]uint64(nil), mits...)
}

// SetGauges records a mitigator's exported gauges for sub-channel sub.
func (r *Run) SetGauges(sub int, gauges map[string]float64) {
	r.subs[sub].gauges = gauges
}

// Gauger is optionally implemented by mitigators (trackers) that expose
// internal gauge values — table occupancy, selection counts, ABO counts —
// for inclusion in reports. Implementations must not mutate tracker state.
type Gauger interface {
	ObsGauges() map[string]float64
}

// sample appends one epoch snapshot (called from sub 0's REF hook and from
// Finish for the tail interval).
func (r *Run) sample(now Tick, refIndex uint64) {
	var retired int64
	var dev DeviceTotals
	if r.src.Retired != nil {
		retired = r.src.Retired()
	}
	if r.src.Device != nil {
		dev = r.src.Device()
	}
	var stall Tick
	var mits uint64
	for _, s := range r.subs {
		stall += s.totalStall
		for _, m := range s.mits {
			mits += m
		}
	}
	dt := now - r.sampled.at
	e := EpochSample{
		Epoch:       r.epochs.total,
		RefIndex:    refIndex,
		AtNS:        now.Nanoseconds(),
		Reads:       dev.Reads - r.sampled.dev.Reads,
		Writes:      dev.Writes - r.sampled.dev.Writes,
		Mitigations: mits - r.sampled.mits,
		StallNS:     (stall - r.sampled.stall).Nanoseconds(),
	}
	if dt > 0 {
		e.IPC = float64(retired-r.sampled.retired) / (float64(dt) / float64(sim.CPUCycle))
		e.BWUtil = float64(dev.BusBusy-r.sampled.dev.BusBusy) / (float64(dt) * float64(len(r.subs)))
	}
	r.epochs.add(e)
	r.sampled = lastSample{at: now, ref: refIndex, retired: retired, dev: dev, stall: stall, mits: mits}
}

// onRefresh is the epoch trigger: sub-channel 0's controller calls it on
// every REF; every EpochRefs-th REF takes a snapshot.
func (r *Run) onRefresh(now Tick, refIndex uint64) {
	if refIndex > 0 && refIndex%uint64(r.opts.EpochRefs) == 0 {
		r.sample(now, refIndex)
	}
}

// emit forwards one mitigation event through the sampled trace hook.
func (r *Run) emit(e Event) {
	r.events++
	if r.opts.OnEvent == nil {
		return
	}
	if (r.events-1)%uint64(r.opts.EventEvery) == 0 {
		r.opts.OnEvent(e)
	}
}

// Finish takes the tail epoch sample at the run's end time, freezes the
// Report, and drives OnReport plus every configured exporter. It returns
// the first exporter error.
func (r *Run) Finish(end Tick) (err error) {
	if end > r.sampled.at {
		r.sample(end, r.sampled.ref)
	}
	rep := r.Report()
	if r.opts.OnReport != nil {
		r.opts.OnReport(rep)
	}
	exps := r.opts.Exporters
	if len(r.opts.Formats) > 0 {
		fileExps, closeFiles, ferr := NewExporters(r.opts.Dir, r.opts.Formats, r.meta)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := closeFiles(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		exps = append(append([]Exporter(nil), exps...), fileExps...)
	}
	for _, ex := range exps {
		if err := ex.Export(rep); err != nil {
			return err
		}
	}
	return nil
}

// SubRecorder collects one sub-channel's per-bank metrics. All hot-path
// methods are only reached behind a nil check in the controller, so a run
// without metrics pays exactly one predictable branch per instrumented
// site.
type SubRecorder struct {
	run   *Run
	sub   int
	banks int
	trace bool

	// stall[cause][bank] is accumulated stalled time in ticks.
	stall [NumCauses][]uint64
	// totalStall accumulates every AddStall* (epoch deltas read it without
	// re-summing the matrix).
	totalStall Tick
	// acts/hits are demand activations and row-buffer hits per bank.
	acts, hits []uint64
	// mits counts victim-refreshes performed for rows of each bank.
	mits []uint64
	// latHist buckets demand-read latency by power-of-two nanoseconds.
	latHist [LatencyBuckets]uint64

	// deviceActs/deviceMits/gauges are installed at end of run.
	deviceActs, deviceMits []uint64
	gauges                 map[string]float64
}

// AddStall attributes d ticks of stall on one bank to cause.
func (s *SubRecorder) AddStall(cause Cause, bank int, d Tick) {
	s.stall[cause][bank] += uint64(d)
	s.totalStall += d
}

// AddStallSet attributes d ticks of stall on every bank in set to cause.
func (s *SubRecorder) AddStallSet(cause Cause, set []int, d Tick) {
	for _, b := range set {
		s.stall[cause][b] += uint64(d)
	}
	s.totalStall += d * Tick(len(set))
}

// AddStallAll attributes d ticks of stall on every bank to cause.
func (s *SubRecorder) AddStallAll(cause Cause, d Tick) {
	arr := s.stall[cause]
	for b := range arr {
		arr[b] += uint64(d)
	}
	s.totalStall += d * Tick(s.banks)
}

// OnAct counts one demand activation on bank.
func (s *SubRecorder) OnAct(bank int) { s.acts[bank]++ }

// OnHit counts one row-buffer hit on bank.
func (s *SubRecorder) OnHit(bank int) { s.hits[bank]++ }

// OnReadLatency buckets one demand-read latency.
func (s *SubRecorder) OnReadLatency(d Tick) {
	ns := uint64(d) / sim.TicksPerNS
	b := 0
	for ns > 1 && b < LatencyBuckets-1 {
		ns >>= 1
		b++
	}
	s.latHist[b]++
}

// OnQueueWait attributes the arrival-to-service wait of one request.
func (s *SubRecorder) OnQueueWait(bank int, d Tick) {
	if d > 0 {
		s.stall[CauseQueue][bank] += uint64(d)
	}
}

// OnRefresh records one periodic REF (tRFC of stall on every bank) and, on
// sub-channel 0, advances the run's epoch sampler.
func (s *SubRecorder) OnRefresh(now Tick, refIndex uint64, trfc Tick) {
	s.AddStallAll(CauseREF, trfc)
	if s.sub == 0 {
		s.run.onRefresh(now, refIndex)
	}
}

// OnOp traces one mitigation op issue (sampled; no-op unless an event sink
// is configured).
func (s *SubRecorder) OnOp(now Tick, cause Cause, bank int, row uint32) {
	if s.trace {
		s.run.emit(Event{At: now, Sub: s.sub, Kind: cause.String(), Bank: bank, Row: row})
	}
}

// OnMitigated counts one completed victim-refresh for (bank, row).
func (s *SubRecorder) OnMitigated(now Tick, bank int, row uint32) {
	s.mits[bank]++
	if s.trace {
		s.run.emit(Event{At: now, Sub: s.sub, Kind: "mitigate", Bank: bank, Row: row})
	}
}
