package exp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateDigests = flag.Bool("update", false,
	"rewrite testdata/registry_digests.txt from the current simulator")

const digestFile = "testdata/registry_digests.txt"

// Every digest run shares one small machine: 4 cores × 5000 accesses of a
// registry workload at T_RH 500 and seed 0xd6ea11, with counter thresholds
// at the smallest WindowScale a figure derives (scaleFromBase's 1/128
// floor) so that most trackers mitigate inside so short a trace.
var (
	digestWorkloads = []string{"mcf", "xz"}
	digestModes     = []string{"audit", "metrics"}
)

const (
	digestTRH         = 500
	digestSeed uint64 = 0xd6ea11
)

// digestKey names one pinned run: scheme, workload, and mode ("audit" runs
// with the security auditor on, "metrics" with the observability layer on).
type digestKey struct{ scheme, workload, mode string }

func (k digestKey) String() string { return k.scheme + "/" + k.workload + "/" + k.mode }

// builtinSchemeNames lists the schemes schemes.go registers at init, sorted.
// Schemes other tests register at run time are not builtin and never enter
// the digest table.
func builtinSchemeNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	var names []string
	for n, reg := range registry.m {
		if reg.builtin {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// runDigest simulates k uncached and returns the SHA-256 of the canonical
// RunResult JSON, followed on a metrics run by the obs Report JSON.
func runDigest(k digestKey) (string, error) {
	sc, ok := SchemeByName(k.scheme)
	if !ok {
		return "", fmt.Errorf("scheme %q is not registered", k.scheme)
	}
	cfg := RunConfig{
		Workload:        k.workload,
		Cores:           4,
		AccessesPerCore: 5000,
		TRH:             digestTRH,
		Scheme:          sc,
		Seed:            digestSeed,
		WindowScale:     1.0 / 128,
	}
	var rep *obs.Report
	switch k.mode {
	case "audit":
		cfg.Audit = true
	case "metrics":
		cfg.Metrics = &obs.Options{OnReport: func(r *obs.Report) { rep = r }}
	default:
		return "", fmt.Errorf("unknown digest mode %q", k.mode)
	}
	res, err := Run(cfg)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return "", err
	}
	if cfg.Metrics != nil {
		if rep == nil {
			return "", fmt.Errorf("%s: metrics run produced no report", k)
		}
		if err := json.NewEncoder(h).Encode(rep); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runDigests computes every key's digest through Parallel with the run cache
// off, so each digest comes from a real simulation.
func runDigests(t *testing.T, keys []digestKey) []string {
	t.Helper()
	was := SetCacheEnabled(false)
	defer SetCacheEnabled(was)
	got, err := Parallel(len(keys), func(i int) (string, error) { return runDigest(keys[i]) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRegistryDigests pins the simulated behaviour of every built-in
// registered scheme: one SHA-256 per scheme × workload × mode over the
// stable RunResult encoding (stats.SchemaVersion) and, on metrics runs, the
// obs Report. Any change to a tracker, the controller, the DRAM model or the
// event loop that moves a single counter fails here. After a deliberate
// behaviour change, regenerate the table with
//
//	go test ./internal/exp -run TestRegistryDigests -update
//
// and review the diff of testdata/registry_digests.txt.
func TestRegistryDigests(t *testing.T) {
	if *updateDigests {
		var keys []digestKey
		for _, sc := range builtinSchemeNames() {
			for _, wl := range digestWorkloads {
				for _, mode := range digestModes {
					keys = append(keys, digestKey{sc, wl, mode})
				}
			}
		}
		got := runDigests(t, keys)
		var b strings.Builder
		b.WriteString("# scheme workload mode sha256 — regenerate with: go test ./internal/exp -run TestRegistryDigests -update\n")
		for i, k := range keys {
			fmt.Fprintf(&b, "%s %s %s %s\n", k.scheme, k.workload, k.mode, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), digestFile)
		return
	}

	keys, want := readDigests(t)
	pinned := make(map[string]bool)
	for _, k := range keys {
		pinned[k.scheme] = true
	}
	for _, sc := range builtinSchemeNames() {
		if !pinned[sc] {
			t.Errorf("built-in scheme %q has no digests in %s; regenerate with -update", sc, digestFile)
		}
	}
	got := runDigests(t, keys)
	for i, k := range keys {
		if got[i] != want[i] {
			t.Errorf("%s: digest %s, want %s", k, got[i], want[i])
		}
	}
}

// readDigests parses the digest table in file order.
func readDigests(t *testing.T) ([]digestKey, []string) {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keys []digestKey
	var sums []string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			t.Fatalf("%s:%d: want 4 fields, got %q", digestFile, line, text)
		}
		keys = append(keys, digestKey{fields[0], fields[1], fields[2]})
		sums = append(sums, fields[3])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatalf("%s holds no digests", digestFile)
	}
	return keys, sums
}
