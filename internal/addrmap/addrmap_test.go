package addrmap

import (
	"testing"
	"testing/quick"
)

func mappers(t *testing.T) []Mapper {
	t.Helper()
	g := Default()
	mop, err := NewMOP4(g)
	if err != nil {
		t.Fatal(err)
	}
	return []Mapper{mop}
}

func TestGeometryDefault(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.TotalBytes(); got != 32<<30 {
		t.Errorf("capacity = %d, want 32 GiB", got)
	}
	if g.LinesPerRow() != 64 {
		t.Errorf("lines per row = %d, want 64", g.LinesPerRow())
	}
	if g.TotalLines() != 512<<20 {
		t.Errorf("total lines = %d, want 512Mi", g.TotalLines())
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := Default()
	bad.Banks = 24 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("expected error for non-power-of-two banks")
	}
	bad = Default()
	bad.RowBytes = 32 // smaller than a line
	if err := bad.Validate(); err == nil {
		t.Error("expected error for RowBytes < LineBytes")
	}
}

// TestRoundTrip checks Map/Unmap bijectivity on every mapper
// (property-based).
func TestRoundTrip(t *testing.T) {
	for _, m := range mappers(t) {
		total := m.Geometry().TotalLines()
		f := func(raw uint64) bool {
			addr := raw % total
			return m.Unmap(m.Map(addr)) == addr
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// TestLocInRange checks decoded fields stay within the geometry.
func TestLocInRange(t *testing.T) {
	for _, m := range mappers(t) {
		g := m.Geometry()
		f := func(raw uint64) bool {
			l := m.Map(raw % g.TotalLines())
			return l.Sub >= 0 && l.Sub < g.SubChannels &&
				l.Bank >= 0 && l.Bank < g.Banks &&
				int(l.Row) < g.Rows &&
				l.Col >= 0 && l.Col < g.LinesPerRow()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// TestMOP4Burst verifies the defining MOP property: four consecutive lines
// share (sub, bank, row) and the fifth moves on.
func TestMOP4Burst(t *testing.T) {
	m, err := NewMOP4(Default())
	if err != nil {
		t.Fatal(err)
	}
	base := m.Map(0)
	for i := uint64(1); i < 4; i++ {
		l := m.Map(i)
		if l.Sub != base.Sub || l.Bank != base.Bank || l.Row != base.Row {
			t.Fatalf("line %d left the burst: %+v vs %+v", i, l, base)
		}
	}
	if l := m.Map(4); l.Sub == base.Sub && l.Bank == base.Bank {
		t.Errorf("line 4 should change sub-channel or bank: %+v", l)
	}
}

// TestMOP4PageStriping verifies the §5.2 property that makes
// set-associative grouping pathological: a 4 KB OS page maps to the same
// RowID across the banks it stripes over.
func TestMOP4PageStriping(t *testing.T) {
	m, err := NewMOP4(Default())
	if err != nil {
		t.Fatal(err)
	}
	pageBase := uint64(123) * 64 // 4 KB page = 64 lines
	row := m.Map(pageBase).Row
	banks := map[[2]int]bool{}
	for i := uint64(0); i < 64; i++ {
		l := m.Map(pageBase + i)
		if l.Row != row {
			t.Fatalf("line %d of the page has row %d, want %d", i, l.Row, row)
		}
		banks[[2]int{l.Sub, l.Bank}] = true
	}
	if len(banks) < 8 {
		t.Errorf("page stripes over %d (sub,bank) pairs, want >= 8", len(banks))
	}
}

// TestMOP4SequentialRowACTs verifies that a full sequential sweep touches
// each row of a bank in LinesPerRow/4 separate bursts (the 16-ACTs-per-row
// streaming behaviour the DCT analysis depends on).
func TestMOP4SequentialRowACTs(t *testing.T) {
	m, err := NewMOP4(Default())
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	prevInBurst := false
	// Sweep enough lines to cover colHigh for (sub 0, bank 0, row 0).
	for addr := uint64(0); addr < 64*64*16; addr++ {
		l := m.Map(addr)
		in := l.Sub == 0 && l.Bank == 0 && l.Row == 0
		if in && !prevInBurst {
			visits++
		}
		prevInBurst = in
	}
	if visits != 16 {
		t.Errorf("sequential sweep visits row 0 of bank 0 %d times, want 16", visits)
	}
}
