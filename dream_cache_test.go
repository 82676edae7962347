package dream

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exp"
)

// TestConfigCacheDirPersistsResults drives the facade's cache directory: a
// run after SetCacheDir populates the disk tier, and after a full in-memory
// reset (the process-restart model) the identical run is served from disk
// bit-identically.
func TestConfigCacheDirPersistsResults(t *testing.T) {
	defer func() {
		SetCacheDir("", 0)
		exp.ResetCache()
	}()
	if err := SetCacheDir(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:        "xz",
		Scheme:          MINTDRFMsb,
		TRH:             2000,
		Cores:           2,
		AccessesPerCore: 2000,
		Seed:            1,
	}
	exp.ResetCache()
	cold, err := SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := exp.CacheStats()
	if st.Disk.Puts == 0 {
		t.Fatalf("facade run wrote nothing to disk: %+v", st.Disk)
	}

	exp.ResetCache()
	warm, err := SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("disk-served facade result differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	if st := exp.CacheStats(); st.DiskMitHits == 0 {
		t.Errorf("facade warm run not disk-served: %+v", st)
	}
}

// TestSetCacheDirUnusableDegrades: the facade contract is degrade-to-compute,
// never fail — an unusable dir errors from SetCacheDir but SimulateContext
// still runs.
func TestSetCacheDirUnusableDegrades(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	// Make the path unusable by occupying it with a file.
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		SetCacheDir("", 0)
		exp.ResetCache()
	}()
	if err := SetCacheDir(bad, 0); err == nil {
		t.Fatal("SetCacheDir succeeded on a file path")
	}
	res, err := SimulateContext(context.Background(), Config{
		Workload: "xz", Scheme: Unprotected, Cores: 2,
		AccessesPerCore: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatalf("SimulateContext failed instead of degrading to compute-only: %v", err)
	}
	if res.SimTimeNS <= 0 {
		t.Errorf("degraded run produced no simulation: %+v", res)
	}
}
