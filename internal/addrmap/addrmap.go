// Package addrmap implements the physical-address-to-DRAM-location mapping
// used by the memory controller.
//
// The baseline system (paper Table 2) is one 32 GB DDR5 channel with two
// independent 32-bit sub-channels, 32 banks per sub-channel, 128 K rows per
// bank, and 4 KB rows (64 cache lines of 64 B). The paper uses the
// Minimalist Open Page (MOP4) policy/mapping [Kaseridis+, MICRO'11]: four
// consecutive cache lines map to the same row in the same bank, after which
// the stream moves to the next bank. This gives streaming workloads a burst
// of four row hits per bank visit and stripes a 4 KB OS page across banks at
// the same RowID — the property that makes set-associative grouping in
// DREAM-C produce hot counters (§5.2).
package addrmap

import "fmt"

// Geometry describes a channel's DRAM organisation. Counts must be powers of
// two.
type Geometry struct {
	SubChannels int // independent sub-channels per channel (2)
	Banks       int // banks per sub-channel (32 = 8 bankgroups x 4)
	Rows        int // rows per bank (128K)
	RowBytes    int // bytes per row (4096)
	LineBytes   int // cache-line size (64)
}

// Default returns the Table-2 geometry: 2 sub-channels x 32 banks x 128K
// rows x 4 KB rows = 32 GB.
func Default() Geometry {
	return Geometry{
		SubChannels: 2,
		Banks:       32,
		Rows:        128 * 1024,
		RowBytes:    4096,
		LineBytes:   64,
	}
}

// LinesPerRow reports the number of cache lines per DRAM row.
func (g Geometry) LinesPerRow() int { return g.RowBytes / g.LineBytes }

// TotalLines reports the number of cache lines in the channel.
func (g Geometry) TotalLines() uint64 {
	return uint64(g.SubChannels) * uint64(g.Banks) * uint64(g.Rows) * uint64(g.LinesPerRow())
}

// TotalBytes reports the channel capacity in bytes.
func (g Geometry) TotalBytes() uint64 { return g.TotalLines() * uint64(g.LineBytes) }

// Validate checks that all fields are positive powers of two.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("addrmap: %s (%d) must be a positive power of two", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"SubChannels", g.SubChannels},
		{"Banks", g.Banks},
		{"Rows", g.Rows},
		{"RowBytes", g.RowBytes},
		{"LineBytes", g.LineBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if g.RowBytes < g.LineBytes {
		return fmt.Errorf("addrmap: RowBytes (%d) < LineBytes (%d)", g.RowBytes, g.LineBytes)
	}
	return nil
}

// Loc is a fully decoded DRAM location for one cache line.
type Loc struct {
	Sub  int    // sub-channel index
	Bank int    // bank index within the sub-channel
	Row  uint32 // row index within the bank
	Col  int    // cache-line (column burst) index within the row
}

// Mapper translates line addresses (physical address / LineBytes) to DRAM
// locations and back. Implementations must be bijections over
// [0, Geometry.TotalLines).
type Mapper interface {
	// Map decodes a line address into a DRAM location.
	Map(lineAddr uint64) Loc
	// Unmap is the inverse of Map.
	Unmap(Loc) uint64
	// Geometry returns the geometry the mapper was built for.
	Geometry() Geometry
	// Name identifies the mapping for reports.
	Name() string
}

func log2(v int) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// MOP4 implements the Minimalist Open Page mapping with 4-line bursts.
//
// Line-address bit layout, LSB first:
//
//	[ colLow: 2 ][ sub: s ][ bank: b ][ colHigh: c-2 ][ row: r ]
//
// so four consecutive lines share a (sub, bank, row, colHigh) and the fifth
// line lands in the next sub-channel/bank.
type MOP4 struct {
	g                          Geometry
	subBits, bankBits          uint
	colBits, rowBits, burstLow uint
}

// NewMOP4 builds the MOP4 mapper for geometry g.
func NewMOP4(g Geometry) (*MOP4, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &MOP4{
		g:        g,
		subBits:  log2(g.SubChannels),
		bankBits: log2(g.Banks),
		colBits:  log2(g.LinesPerRow()),
		rowBits:  log2(g.Rows),
		burstLow: 2,
	}
	if m.colBits < m.burstLow {
		return nil, fmt.Errorf("addrmap: row too small for MOP4 burst (%d column bits)", m.colBits)
	}
	return m, nil
}

// Map implements Mapper.
func (m *MOP4) Map(lineAddr uint64) Loc {
	a := lineAddr
	colLow := int(a & (1<<m.burstLow - 1))
	a >>= m.burstLow
	sub := int(a & (1<<m.subBits - 1))
	a >>= m.subBits
	bank := int(a & (1<<m.bankBits - 1))
	a >>= m.bankBits
	colHigh := int(a & (1<<(m.colBits-m.burstLow) - 1))
	a >>= m.colBits - m.burstLow
	row := uint32(a & (1<<m.rowBits - 1))
	return Loc{Sub: sub, Bank: bank, Row: row, Col: colHigh<<m.burstLow | colLow}
}

// Unmap implements Mapper.
func (m *MOP4) Unmap(l Loc) uint64 {
	colLow := uint64(l.Col) & (1<<m.burstLow - 1)
	colHigh := uint64(l.Col) >> m.burstLow
	a := uint64(l.Row)
	a = a<<(m.colBits-m.burstLow) | colHigh
	a = a<<m.bankBits | uint64(l.Bank)
	a = a<<m.subBits | uint64(l.Sub)
	a = a<<m.burstLow | colLow
	return a
}

// Geometry implements Mapper.
func (m *MOP4) Geometry() Geometry { return m.g }

// Name implements Mapper.
func (m *MOP4) Name() string { return "MOP4" }
