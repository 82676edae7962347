package memctrl

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAuditorAggressorCount(t *testing.T) {
	a := NewAuditor(1024, 8)
	for i := 0; i < 10; i++ {
		a.OnActivate(0, 100)
	}
	if a.MaxAggr != 10 {
		t.Errorf("MaxAggr = %d, want 10", a.MaxAggr)
	}
	a.OnMitigate(0, 100)
	a.OnActivate(0, 100)
	if a.MaxAggr != 10 {
		t.Errorf("MaxAggr must keep the historical maximum, got %d", a.MaxAggr)
	}
	if aggr, _ := a.Tracked(); aggr != 1 {
		t.Errorf("tracked aggressors = %d", aggr)
	}
}

func TestAuditorVictimDamage(t *testing.T) {
	a := NewAuditor(1024, 8)
	// Double-sided on victim 50: neighbours 49 and 51.
	for i := 0; i < 7; i++ {
		a.OnActivate(0, 49)
		a.OnActivate(0, 51)
	}
	if a.MaxVictim != 14 {
		t.Errorf("MaxVictim = %d, want 14 (7+7)", a.MaxVictim)
	}
	// Mitigating aggressor 49 refreshes rows 47..51, clearing 50's damage.
	a.OnMitigate(0, 49)
	a.OnActivate(0, 49)
	if a.MaxVictim != 14 {
		t.Errorf("MaxVictim = %d, historical max must persist", a.MaxVictim)
	}
}

func TestAuditorRefreshSweep(t *testing.T) {
	a := NewAuditor(1024, 8)
	a.OnActivate(0, 17) // damages rows 16 and 18
	a.OnRefresh(0)      // slot 0: rows ≡ 0 (mod 8): 16 refreshed
	_, victims := a.Tracked()
	if victims != 1 {
		t.Errorf("victims after sweep = %d, want 1 (row 18 left)", victims)
	}
}

func TestAuditorEdgeRows(t *testing.T) {
	a := NewAuditor(4, 8)
	a.OnActivate(0, 0) // row -1 out of range
	a.OnActivate(0, 3) // row 4 out of range
	if a.MaxVictim != 1 {
		t.Errorf("MaxVictim = %d", a.MaxVictim)
	}
}

// TestAuditorDamageBound: victim damage never exceeds the total
// activations of its two neighbours (property-based).
func TestAuditorDamageBound(t *testing.T) {
	f := func(acts []uint8) bool {
		a := NewAuditor(64, 8)
		perRow := map[uint32]uint64{}
		for _, x := range acts {
			row := uint32(x % 64)
			a.OnActivate(0, row)
			perRow[row]++
		}
		for v := uint32(1); v < 63; v++ {
			limit := perRow[v-1] + perRow[v+1]
			if a.Damage(0, v) > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAuditorAllocsPerRun: a fresh auditor allocates a small, fixed number
// of times per run however many windows the run sweeps — the refresh-slot
// index reuses its nodes across sweeps instead of growing a slice per slot.
// What remains is the tables' and node pools' doubling as the live key set
// grows (about 60 allocations here; tens of thousands with a slice per
// slot).
func TestAuditorAllocsPerRun(t *testing.T) {
	rng := sim.NewRNG(0xa110c)
	rows := make([]uint32, 1<<14)
	for i := range rows {
		rows[i] = rng.Uint32() % (1 << 14)
	}
	allocs := testing.AllocsPerRun(3, func() {
		a := NewAuditor(1<<17, 8192)
		for i := 0; i < 1<<17; i++ {
			row := rows[i&(len(rows)-1)]
			a.OnActivate(i&31, row)
			if i&63 == 63 {
				a.OnMitigate(i&31, row)
			}
			if i&7 == 7 {
				a.OnRefresh(uint64(i >> 3)) // two full windows
			}
		}
	})
	if allocs > 100 {
		t.Errorf("%.0f allocations per run, want at most 100", allocs)
	}
}
