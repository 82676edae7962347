package exp

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/tracker"
)

// withDiskCache points the process-wide cache at a temp dir for fn and
// restores a detached, empty cache afterwards.
func withDiskCache(t *testing.T, fn func(dir string)) {
	t.Helper()
	dir := t.TempDir()
	was := SetCacheEnabled(true)
	ResetCache()
	if err := SetDiskCache(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		SetDiskCache("", 0)
		SetCacheEnabled(was)
		ResetCache()
	}()
	fn(dir)
}

// TestDiskCacheDeterminism is the tentpole acceptance test: the same figure
// run twice across a fresh Cache (the in-process model of a process
// restart) with the same disk dir must produce byte-identical output, with
// the second pass served from disk.
func TestDiskCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real quick figure twice")
	}
	withDiskCache(t, func(dir string) {
		runFig := func() string {
			var buf bytes.Buffer
			e, err := Find("fig5")
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(Options{Quick: true, Out: &buf, Seed: 0xcafe,
				Workloads: []string{"mcf"}}); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		cold := runFig()
		st := CacheStats()
		if st.Disk.Puts == 0 {
			t.Fatalf("cold run wrote nothing to disk: %+v", st)
		}
		coldComputedMit := st.MitMisses - st.DiskMitHits
		if coldComputedMit == 0 {
			t.Fatalf("cold run computed no mitigated sims — test is vacuous: %+v", st)
		}

		ResetCache() // fresh Cache, same disk dir
		warm := runFig()
		if warm != cold {
			t.Errorf("warm figure output differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
		}
		st = CacheStats()
		// A fully-warm rerun never requests traces at all — every result is
		// served before a simulation would need them — so only the result
		// tiers must show disk hits here.
		if st.DiskRunHits == 0 || st.DiskMitHits == 0 {
			t.Errorf("warm run not disk-served: run/mit disk hits = %d/%d: %+v",
				st.DiskRunHits, st.DiskMitHits, st)
		}
		if computed := st.MitMisses - st.DiskMitHits; computed != 0 {
			t.Errorf("warm run recomputed %d mitigated sims", computed)
		}

		// A previously-unseen threshold forces a real simulation: its trace
		// set must come from the disk tier, not regeneration. (Same workload,
		// cores, accesses, and seed → same trace key as the run that wrote it.)
		mk := func(trh int) RunConfig {
			return RunConfig{
				Workload: "mcf", Cores: 2, AccessesPerCore: 4000,
				TRH: trh, Scheme: MINTWith(tracker.ModeDRFMsb), Seed: 0xcafe,
			}
		}
		ResetCache()
		if _, err := Run(mk(1000)); err != nil {
			t.Fatal(err)
		}
		ResetCache()
		if _, err := Run(mk(1234)); err != nil {
			t.Fatal(err)
		}
		if st := CacheStats(); st.DiskTraceHits == 0 {
			t.Errorf("fresh-threshold run regenerated traces instead of disk-loading: %+v", st)
		}
	})
}

// TestCorruptedEntryRecomputesGracefully corrupts every on-disk entry after
// a cold run: the warm run must silently recompute, produce identical
// results, and report the corruption — never fail.
func TestCorruptedEntryRecomputesGracefully(t *testing.T) {
	withDiskCache(t, func(dir string) {
		cfg := RunConfig{
			Workload: "mcf", Cores: 2, AccessesPerCore: 4000,
			TRH: 1000, Scheme: MINTWith(tracker.ModeDRFMsb), Seed: 0xcafe,
		}
		cold, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Truncate every entry in place.
		err = filepath.Walk(dir, func(path string, fi os.FileInfo, werr error) error {
			if werr != nil || fi.IsDir() || fi.Size() < 8 {
				return werr
			}
			return os.Truncate(path, fi.Size()/2)
		})
		if err != nil {
			t.Fatal(err)
		}
		ResetCache()
		warm, err := Run(cfg)
		if err != nil {
			t.Fatalf("corrupted cache surfaced an error instead of recomputing: %v", err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("recomputed result differs:\ncold %+v\nwarm %+v", cold, warm)
		}
		st := CacheStats()
		if st.Disk.Corrupt == 0 {
			t.Errorf("corruption not counted: %+v", st.Disk)
		}
		if st.DiskRunHits+st.DiskMitHits+st.DiskTraceHits != 0 {
			t.Errorf("corrupt entries served as hits: %+v", st)
		}
	})
}

// TestMitigatedRunsDiskCached pins the mitigated-run tier specifically: a
// Pure scheme's result round-trips through the disk cache bit-exactly.
func TestMitigatedRunsDiskCached(t *testing.T) {
	withDiskCache(t, func(dir string) {
		cfg := RunConfig{
			Workload: "mcf", Cores: 2, AccessesPerCore: 4000,
			TRH: 1000, Scheme: MINTWith(tracker.ModeDRFMsb), Seed: 0xcafe,
		}
		cold, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ResetCache()
		warm, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("disk-served mitigated result not bit-identical:\ncold %+v\nwarm %+v", cold, warm)
		}
		if st := CacheStats(); st.DiskMitHits != 1 {
			t.Errorf("mitigated run not disk-served: %+v", st)
		}
	})
}

// TestImpureSchemesBypassDiskCache: a scheme that does not declare purity
// must never be served from or written to the mitigated tier.
func TestImpureSchemesBypassDiskCache(t *testing.T) {
	withDiskCache(t, func(dir string) {
		sc := MINTWith(tracker.ModeDRFMsb)
		sc.Pure = false
		cfg := RunConfig{
			Workload: "mcf", Cores: 2, AccessesPerCore: 4000,
			TRH: 1000, Scheme: sc, Seed: 0xcafe,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if st := CacheStats(); st.MitMisses != 0 || st.MitHits != 0 {
			t.Errorf("impure scheme touched the mitigated tier: %+v", st)
		}
	})
}

// TestUnwritableCacheDirFallsBackToCompute: SetDiskCache on an unusable dir
// errors, leaves the tier detached, and runs still work compute-only.
func TestUnwritableCacheDirFallsBackToCompute(t *testing.T) {
	if runtime.GOOS == "windows" || os.Geteuid() == 0 {
		t.Skip("permission bits not enforceable here")
	}
	parent := t.TempDir()
	ro := filepath.Join(parent, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	defer harness.SetOutput(harness.SetOutput(io.Discard))
	was := SetCacheEnabled(true)
	ResetCache()
	defer func() {
		SetDiskCache("", 0)
		SetCacheEnabled(was)
		ResetCache()
	}()
	if err := SetDiskCache(filepath.Join(ro, "cache"), 0); err == nil {
		t.Fatal("SetDiskCache succeeded on an unwritable dir")
	}
	if DiskCacheDir() != "" {
		t.Fatal("failed SetDiskCache left a disk tier attached")
	}
	r, err := Run(RunConfig{
		Workload: "mcf", Cores: 2, AccessesPerCore: 4000,
		TRH: 1000, Scheme: Baseline, Seed: 0xcafe,
	})
	if err != nil {
		t.Fatalf("compute-only fallback failed: %v", err)
	}
	if r.SimTimeNS <= 0 {
		t.Errorf("fallback run produced no simulation: %+v", r)
	}
}
