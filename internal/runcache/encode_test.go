package runcache

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestTraceSetCodecRoundTrip is the bit-exactness property test: arbitrary
// trace sets — including extreme line addresses, negative deltas, wrapping
// deltas, zero-length streams — must decode back identical.
func TestTraceSetCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := []TraceSet{
		{},                  // zero cores
		{nil},               // one empty stream
		{nil, {}, nil},      // mixed empties
		{{Access{Line: 0}}}, // minimal
		{{Access{Line: math.MaxUint64, Gap: math.MaxInt32, Write: true}}},
		{{ // wrapping delta: MaxUint64 -> 0 -> MaxUint64
			Access{Line: math.MaxUint64},
			Access{Line: 0, Gap: -1},
			Access{Line: math.MaxUint64, Gap: math.MinInt32, Write: true},
		}},
	}
	// Random sets: skewed small deltas plus full-range jumps.
	for n := 0; n < 20; n++ {
		ts := make(TraceSet, 1+rng.Intn(4))
		for c := range ts {
			m := rng.Intn(200)
			stream := make([]Access, m)
			line := rng.Uint64()
			for i := range stream {
				switch rng.Intn(3) {
				case 0:
					line++
				case 1:
					line -= uint64(rng.Intn(1000))
				default:
					line = rng.Uint64()
				}
				stream[i] = Access{
					Line:  line,
					Gap:   int32(rng.Int31()) - math.MaxInt32/2,
					Write: rng.Intn(2) == 0,
				}
			}
			ts[c] = stream
		}
		sets = append(sets, ts)
	}
	for i, ts := range sets {
		enc := EncodeTraceSet(ts)
		dec, err := DecodeTraceSet(enc)
		if err != nil {
			t.Fatalf("set %d: decode failed: %v", i, err)
		}
		if !equalTraceSets(ts, dec) {
			t.Fatalf("set %d: round trip not bit-exact:\n in %v\nout %v", i, ts, dec)
		}
	}
}

// equalTraceSets compares allowing nil vs empty stream equivalence (the
// decoder materializes empty streams; replay is identical either way).
func equalTraceSets(a, b TraceSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestDecodeTraceSetRejectsGarbage(t *testing.T) {
	valid := EncodeTraceSet(TraceSet{{Access{Line: 42, Gap: 7, Write: true}}})
	cases := map[string][]byte{
		"empty":            {},
		"wrong format":     append([]byte{traceSetFormat + 1}, valid[1:]...),
		"truncated header": valid[:1],
		"truncated stream": valid[:len(valid)-1],
		"trailing bytes":   append(append([]byte{}, valid...), 0),
		"absurd cores":     {traceSetFormat, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if _, err := DecodeTraceSet(data); err == nil {
			t.Errorf("%s: decode accepted invalid payload", name)
		}
	}
}

// TestDecodeTraceSetRejectsOverlongStream checks the stream-length sanity
// bound: a header claiming more accesses than remaining bytes fails before
// allocating.
func TestDecodeTraceSetRejectsOverlongStream(t *testing.T) {
	// format, 1 core, stream length 2^40, then nothing.
	data := []byte{traceSetFormat, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := DecodeTraceSet(data); err == nil {
		t.Fatal("decode accepted implausible stream length")
	}
}

func TestCanonicalKeysAreDistinctAndStamped(t *testing.T) {
	tk := TraceKey{Kind: "rate", Workload: "mcf", Cores: 8, Accesses: 200_000, Seed: 0x5eed}
	rk := RunKey{Trace: tk, MOPCap: 4, MaxTime: 123}
	mk := MitKey{Run: rk, Scheme: "mint-dreamr", TRH: 2000, WindowScaleBits: math.Float64bits(1), Seed: 0x5eed}

	keys := []string{tk.canonical(), rk.canonical(), mk.canonical()}
	seen := map[string]bool{}
	for _, k := range keys {
		if !strings.Contains(k, keyGeneration) {
			t.Errorf("key %q missing generation stamp %q", k, keyGeneration)
		}
		if seen[k] {
			t.Errorf("duplicate canonical key %q", k)
		}
		seen[k] = true
	}

	// Any field change must change the canonical form.
	tk2 := tk
	tk2.Seed++
	if tk2.canonical() == tk.canonical() {
		t.Error("seed change did not change trace key")
	}
	mk2 := mk
	mk2.WindowScaleBits = math.Float64bits(1.0000000001)
	if mk2.canonical() == mk.canonical() {
		t.Error("window-scale bit change did not change mit key")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 12345, -12345} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
	if !reflect.DeepEqual(zigzag(-1), uint64(1)) {
		t.Errorf("zigzag(-1) = %d, want 1", zigzag(-1))
	}
}
