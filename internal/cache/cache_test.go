package cache

import (
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 4096, Ways: 4, LineBytes: 64}) // 16 sets
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{SizeBytes: 0, Ways: 4, LineBytes: 64}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := New(Config{SizeBytes: 4096, Ways: 3, LineBytes: 64}); err == nil {
		t.Error("non-dividing ways should fail")
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 8192 {
		t.Errorf("default sets = %d, want 8192", c.Sets())
	}
}

func TestHitMiss(t *testing.T) {
	c := small(t)
	if r := c.Access(100, false); r.Hit {
		t.Error("first access must miss")
	}
	if r := c.Access(100, false); !r.Hit {
		t.Error("second access must hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t)
	// Fill one set (same low bits) with 4 ways, then add a 5th line.
	lines := []uint64{0, 16, 32, 48, 64} // set 0 with 16 sets
	for _, l := range lines[:4] {
		c.Access(l, false)
	}
	c.Access(0, false) // touch line 0, making 16 the LRU
	c.Access(lines[4], false)
	if c.Probe(16) {
		t.Error("LRU line 16 should have been evicted")
	}
	for _, l := range []uint64{0, 32, 48, 64} {
		if !c.Probe(l) {
			t.Errorf("line %d should be resident", l)
		}
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small(t)
	c.Access(0, true) // dirty
	for _, l := range []uint64{16, 32, 48} {
		c.Access(l, false)
	}
	r := c.Access(64, false) // evicts line 0 (LRU, dirty)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Errorf("expected writeback of line 0, got %+v", r)
	}
	c2 := small(t)
	c2.Access(0, false) // clean
	for _, l := range []uint64{16, 32, 48} {
		c2.Access(l, false)
	}
	if r := c2.Access(64, false); r.Writeback {
		t.Error("clean eviction must not write back")
	}
}

func TestWriteAllocateMarksDirty(t *testing.T) {
	c := small(t)
	c.Access(128, true)
	for _, l := range []uint64{128 + 16, 128 + 32, 128 + 48} {
		c.Access(l, false)
	}
	if r := c.Access(128+64, false); !r.Writeback || r.WritebackAddr != 128 {
		t.Errorf("store-allocated line must be dirty: %+v", r)
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	c := small(t)
	for _, l := range []uint64{0, 16, 32, 48} {
		c.Access(l, false)
	}
	c.Probe(0) // must NOT refresh line 0
	c.Access(64, false)
	if c.Probe(0) {
		t.Error("probe refreshed LRU state")
	}
}

// TestWritebackAddrRoundTrip: the reconstructed writeback address must map
// to the same set and tag as the original (property-based).
func TestWritebackAddrRoundTrip(t *testing.T) {
	c := small(t)
	seen := map[uint64]bool{}
	f := func(raw uint64) bool {
		addr := raw % (1 << 20)
		r := c.Access(addr, true)
		seen[addr] = true
		if r.Writeback && !seen[r.WritebackAddr] {
			return false // wrote back a line never inserted
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestCapacityBound: residency never exceeds ways per set.
func TestCapacityBound(t *testing.T) {
	c := small(t)
	for i := uint64(0); i < 10000; i++ {
		c.Access(i*16, false) // all in set 0
	}
	resident := 0
	for i := uint64(0); i < 10000; i++ {
		if c.Probe(i * 16) {
			resident++
		}
	}
	if resident > 4 {
		t.Errorf("%d lines resident in a 4-way set", resident)
	}
}
