// Package cache implements the shared last-level cache of the baseline
// system (paper Table 2): 8 MB, 16-way, 64 B lines, LRU replacement,
// write-back and write-allocate. Only LLC misses reach the memory
// controller, so the cache determines the MPKI and row-locality the DRAM
// model observes.
//
// Layout: the hit path is the hottest loop of a whole-system run (one call
// per core memory access), so the ways of a set are split into two flat
// parallel arrays — a tag word and a metadata word per line — instead of an
// array of line structs. A 16-way set's tags then occupy two cache lines
// (128 B) and the search loop issues one load per way; the metadata word
// packs the LRU timestamp above valid/dirty bits and is only touched on a
// candidate match or a fill. Timestamps are unique (one access bumps one
// line), so comparing packed words orders victims exactly as comparing raw
// timestamps would.
package cache

import "fmt"

// meta word: bit 0 = valid, bit 1 = dirty, bits 2.. = LRU timestamp.
const (
	metaValid = 1 << 0
	metaDirty = 1 << 1
	metaShift = 2
)

// Config sizes the cache.
type Config struct {
	SizeBytes int // total capacity (8 MiB)
	Ways      int // associativity (16)
	LineBytes int // line size (64)
}

// DefaultConfig returns the Table-2 LLC configuration.
func DefaultConfig() Config {
	return Config{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64}
}

// Cache is a set-associative, write-back, write-allocate cache indexed by
// line address (physical address / LineBytes).
type Cache struct {
	cfg      Config
	tags     []uint64 // nsets × ways, flat
	meta     []uint64 // parallel to tags
	ways     int
	nsets    int
	setMask  uint64
	tagShift uint64
	tick     uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
	Writebks uint64
}

// New builds a cache; it returns an error for non-power-of-two shapes.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive config %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, lines),
		meta:     make([]uint64, lines),
		ways:     cfg.Ways,
		nsets:    nsets,
		setMask:  uint64(nsets - 1),
		tagShift: uint64(len64(uint64(nsets - 1))),
	}, nil
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; WritebackAddr is its
	// line address, which must be written to memory.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a load (isWrite=false) or store (isWrite=true) to
// lineAddr. Stores allocate on miss and mark the line dirty.
func (c *Cache) Access(lineAddr uint64, isWrite bool) Result {
	c.tick++
	base := int(lineAddr&c.setMask) * c.ways
	tag := lineAddr >> c.tagShift
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+c.ways]

	// Hit path. A tag can match a never-filled way (tags start at zero), so
	// a candidate must also be valid.
	for i := range tags {
		if tags[i] == tag && meta[i]&metaValid != 0 {
			m := c.tick<<metaShift | meta[i]&(metaValid|metaDirty)
			if isWrite {
				m |= metaDirty
			}
			meta[i] = m
			c.Hits++
			return Result{Hit: true}
		}
	}
	c.Misses++

	// Miss: pick an invalid way, else the LRU way (packed-word compare;
	// timestamps are unique, so the order matches comparing them raw).
	victim := 0
	for i := range meta {
		if meta[i]&metaValid == 0 {
			victim = i
			goto fill
		}
		if meta[i] < meta[victim] {
			victim = i
		}
	}
fill:
	res := Result{}
	if m := meta[victim]; m&metaValid != 0 {
		c.Evicts++
		if m&metaDirty != 0 {
			c.Writebks++
			res.Writeback = true
			res.WritebackAddr = tags[victim]<<c.tagShift | (lineAddr & c.setMask)
		}
	}
	tags[victim] = tag
	m := c.tick<<metaShift | metaValid
	if isWrite {
		m |= metaDirty
	}
	meta[victim] = m
	return res
}

// Probe reports whether lineAddr is resident without touching LRU state.
func (c *Cache) Probe(lineAddr uint64) bool {
	base := int(lineAddr&c.setMask) * c.ways
	tag := lineAddr >> c.tagShift
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+c.ways]
	for i := range tags {
		if tags[i] == tag && meta[i]&metaValid != 0 {
			return true
		}
	}
	return false
}

// Sets reports the number of sets (for tests).
func (c *Cache) Sets() int { return c.nsets }

func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}
