package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/memctrl"
)

// --- spans --------------------------------------------------------------------

// tracer keeps spans in memory and writes them as JSONL when the run ends, so
// recording costs an append, not I/O. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	Trace   string         `json:"trace"`
	Span    uint64         `json:"span"`
	Parent  uint64         `json:"parent"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

type span struct {
	t   *tracer
	rec spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span; every span of one pass or request shares its trace ID.
func (t *tracer) start(trace string, parent uint64, name string) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, rec: spanRec{Trace: trace, Span: t.next.Add(1), Parent: parent,
		Name: name, StartNS: time.Since(t.epoch).Nanoseconds()}}
}

func (s *span) id() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.Span
}

func (s *span) end(attrs map[string]any) {
	if s == nil {
		return
	}
	s.rec.EndNS = time.Since(s.t.epoch).Nanoseconds()
	s.rec.Attrs = attrs
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// write saves every span, one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- mitigator hook counting ---------------------------------------------------

// countingMitigator decorates a tracker and counts the controller's calls into
// it. Each instance serves one sub-channel of one simulation, so the counters
// are plain fields; hookCounts sums them once the simulation has finished.
type countingMitigator struct {
	memctrl.Mitigator
	activates, refreshes, ops uint64
}

func (m *countingMitigator) OnActivate(now memctrl.Tick, bank int, row uint32) memctrl.Decision {
	m.activates++
	d := m.Mitigator.OnActivate(now, bank, row)
	m.ops += uint64(len(d.PreOps) + len(d.PostOps))
	return d
}

func (m *countingMitigator) OnRefresh(now memctrl.Tick, refIndex uint64) []memctrl.Op {
	m.refreshes++
	ops := m.Mitigator.OnRefresh(now, refIndex)
	m.ops += uint64(len(ops))
	return ops
}

// hookCounts collects the decorators built during traced passes.
type hookCounts struct {
	mu   sync.Mutex
	mits []*countingMitigator
}

// hooks is the process's hook counter. It is shared with the hook-counting
// scheme twins the attack audit registers, which live as long as the process
// registry does.
var hooks hookCounts

type hookTotals struct{ activates, refreshes, ops uint64 }

// wrap decorates a scheme's Build so every mitigator it returns is counted.
func (h *hookCounts) wrap(build func(exp.Env, int) (memctrl.Mitigator, error)) func(exp.Env, int) (memctrl.Mitigator, error) {
	return func(env exp.Env, sub int) (memctrl.Mitigator, error) {
		m, err := build(env, sub)
		if err != nil || m == nil {
			return m, err
		}
		c := &countingMitigator{Mitigator: m}
		h.mu.Lock()
		h.mits = append(h.mits, c)
		h.mu.Unlock()
		return c, nil
	}
}

// take sums and forgets the counted mitigators. Call it only after the pass's
// simulations have returned.
func (h *hookCounts) take() hookTotals {
	var t hookTotals
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, m := range h.mits {
		t.activates += m.activates
		t.refreshes += m.refreshes
		t.ops += m.ops
	}
	h.mits = nil
	return t
}

// --- CPU profile ---------------------------------------------------------------

// startProfile profiles the process until the returned stop is called.
func (r *runner) startProfile(label string) (func(), error) {
	path := r.artifact(label + ".cpu.prof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	r.profiles = append(r.profiles, path)
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// reportedLayers are the layers with a declared <layer>.self_pct metric. The
// remaining named layers (facade, bench, sim, stats, obs, security) still
// count as attributed and appear among a run record's extra values.
var reportedLayers = []string{
	"exp", "workload", "system", "evq", "cpu", "cache", "memctrl", "memctrl.auditor",
	"dram", "addrmap", "tracker", "core", "rowtable", "runcache", "svc", "harness",
	"http", "json", "gc", "runtime",
}

// foldProfiles merges the traced passes' CPU profiles and folds every sample
// into the layer that spent it, as <layer>.self_pct shares of all samples,
// plus profile.attributed_pct for the share that landed in a named layer.
func foldProfiles(files []string) (map[string]float64, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("no CPU profile was recorded")
	}
	args := append([]string{"tool", "pprof", "-traces"}, files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byLayer, total := foldTraces(out)
	shares := make(map[string]float64, len(reportedLayers)+1)
	for _, l := range reportedLayers {
		shares[l+".self_pct"] = 0
	}
	if total == 0 {
		shares["profile.attributed_pct"] = 0
		return shares, nil
	}
	var attributed float64
	for l, v := range byLayer {
		if l != "other" {
			attributed += v
		}
		shares[l+".self_pct"] = 100 * v / total
	}
	shares["profile.attributed_pct"] = 100 * attributed / total
	return shares, nil
}

// foldTraces parses `go tool pprof -traces` output: blocks separated by
// dashed lines, each starting with the sample value and the leaf frame,
// followed by its callers. It returns sample time per layer and in total.
func foldTraces(out []byte) (map[string]float64, float64) {
	byLayer := make(map[string]float64)
	var total float64
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOfStack(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || !strings.HasPrefix(line, " ") {
			continue // header lines (File:, Type:, ...)
		}
		if len(frames) == 0 {
			// "     10ms   runtime.mallocgc"
			f := strings.Fields(trimmed)
			if len(f) < 2 {
				continue
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				continue
			}
			value = d.Seconds()
			frames = append(frames, strings.Join(f[1:], " "))
			continue
		}
		frames = append(frames, trimmed)
	}
	flush()
	return byLayer, total
}

// layerOfStack attributes one sample: the first frame from the leaf up that
// belongs to a layer. Generic helpers (runtime memmove and maps, sort, math,
// strconv, sync, I/O plumbing) are transparent: their time belongs to the
// layer that called them. Allocation and collection are the gc layer;
// scheduling and idle frames the runtime layer. JSON and HTTP work belongs to
// the json and http layers unless the benchmark's own code (the load
// generator, including its HTTP client transport) asked for it.
func layerOfStack(frames []string) string {
	onlyRuntime := true
	pending := "" // json or http, until the frame that asked for it is known
	for _, fr := range frames {
		if strings.HasPrefix(fr, "main.") || strings.HasPrefix(fr, "net/http.(*persistConn)") ||
			strings.HasPrefix(fr, "net/http.(*Transport)") {
			return "bench"
		}
		l := layerOf(fr)
		switch {
		case l == "json" || l == "http":
			if pending == "" {
				pending = l
			}
		case l != "" && pending != "":
			return pending
		case l != "":
			return l
		case !strings.HasPrefix(fr, "runtime."):
			onlyRuntime = false
		}
	}
	switch {
	case pending != "":
		return pending
	case onlyRuntime:
		return "runtime"
	}
	return "other"
}

// layerOf maps one symbol to its layer, or "" for a transparent helper.
func layerOf(sym string) string {
	switch {
	case strings.HasPrefix(sym, "repro/internal/memctrl.") && strings.Contains(sym, "Auditor"):
		return "memctrl.auditor"
	case strings.HasPrefix(sym, "repro/internal/runcache"):
		return "runcache"
	case strings.HasPrefix(sym, "repro/internal/"):
		rest := strings.TrimPrefix(sym, "repro/internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(sym, "repro."):
		return "facade"
	case strings.HasPrefix(sym, "encoding/json."):
		return "json"
	case strings.HasPrefix(sym, "net/http."), strings.HasPrefix(sym, "net/textproto."),
		strings.HasPrefix(sym, "net."):
		return "http"
	case strings.HasPrefix(sym, "runtime."):
		return runtimeLayer(strings.TrimPrefix(sym, "runtime."))
	case strings.HasPrefix(sym, "os."), strings.HasPrefix(sym, "syscall."),
		strings.HasPrefix(sym, "internal/poll."), strings.HasPrefix(sym, "internal/runtime/syscall."):
		return "" // I/O plumbing: its caller says whether it is disk or network
	}
	return ""
}

// gcSymbols and schedSymbols classify runtime frames by substring.
var (
	gcSymbols = []string{"gcBgMarkWorker", "gcDrain", "gcAssist", "scanobject", "scanblock",
		"scanstack", "scanframe", "greyobject", "findObject", "markroot", "wbBuf", "gcWriteBarrier",
		"bulkBarrier", "mallocgc", "mcache", "mcentral", "mheap", "mspan", "sweep", "heapBits",
		"typePointers", "gcStart", "gcMark", "pageAlloc", "newobject", "newarray", "makeslice",
		"growslice", "makemap", "gcenable", "(*gcWork)", "gcFlush", "freeSpan", "allocSpan"}
	schedSymbols = []string{"schedule", "findRunnable", "park_m", "gopark", "stopm", "startm",
		"notesleep", "notewakeup", "futex", "mcall", "netpoll", "usleep", "osyield", "sysmon",
		"goexit", "mstart", "wakep", "runqgrab", "stealWork", "checkTimers", "timeSleep",
		"epollwait", "procyield", "exitsyscall", "entersyscall", "semasleep", "semawakeup"}
)

func runtimeLayer(name string) string {
	for _, s := range gcSymbols {
		if strings.Contains(name, s) {
			return "gc"
		}
	}
	for _, s := range schedSymbols {
		if strings.Contains(name, s) {
			return "runtime"
		}
	}
	return ""
}

// writeSchemeTimes appends one summary span per scheme with its operations'
// total and mean host time, so the trace output has a row for every audited
// scheme.
func writeSchemeTimes(tr *tracer, trace string, times map[string][]float64) {
	for _, s := range sortedKeys(times) {
		var sum float64
		for _, v := range times[s] {
			sum += v
		}
		sp := tr.start(trace, 0, "scheme_time")
		sp.end(map[string]any{"scheme": s, "calls": len(times[s]),
			"total_ms": sum, "mean_ms": sum / float64(len(times[s]))})
	}
}
