package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNSExactness(t *testing.T) {
	cases := []struct {
		ns   float64
		want Tick
	}{
		{1, 12}, {14, 168}, {46, 552}, {240, 2880}, {280, 3360},
		{410, 4920}, {3900, 46800}, {64.0 / 24.0, 32},
	}
	for _, c := range cases {
		if got := NS(c.ns); got != c.want {
			t.Errorf("NS(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestNSPanicsOnInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NS(0.7) should panic: 0.7 ns is not a tick multiple")
		}
	}()
	NS(0.7)
}

func TestClockConstants(t *testing.T) {
	if CPUCycle*4 != 12 {
		t.Errorf("4 GHz CPU cycle must be 3 ticks, got %d", CPUCycle)
	}
	if MemCycle*3 != 12 {
		t.Errorf("3 GHz memory cycle must be 4 ticks, got %d", MemCycle)
	}
}

func TestTickConversions(t *testing.T) {
	tick := NS(3900)
	if got := tick.Microseconds(); math.Abs(got-3.9) > 1e-12 {
		t.Errorf("Microseconds = %v, want 3.9", got)
	}
	if got := Tick(12e6).Milliseconds(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Milliseconds = %v, want 1", got)
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct{ t, p, want Tick }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8}, {7, 1, 7},
	}
	for _, c := range cases {
		if got := AlignUp(c.t, c.p); got != c.want {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.t, c.p, got, c.want)
		}
	}
}

func TestMinMaxTick(t *testing.T) {
	if MinTick(3, 5) != 3 || MinTick(5, 3) != 3 {
		t.Error("MinTick wrong")
	}
	if MaxTick(3, 5) != 5 || MaxTick(5, 3) != 5 {
		t.Error("MaxTick wrong")
	}
}

func TestTickString(t *testing.T) {
	for _, c := range []struct {
		tick Tick
		want string
	}{
		{NS(46), "46.00ns"},
		{NS(3900), "3.900us"},
		{12e6, "1.000ms"},
		{Forever, "forever"},
	} {
		if got := c.tick.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.tick, got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same sequence")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 100_000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(11)
	const p, n = 0.01, 1_000_000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.008 || got > 0.012 {
		t.Errorf("Bernoulli(0.01) rate = %v", got)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) must be false")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) must be true")
	}
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(5).Fork(1)
	b := NewRNG(5).Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams correlate: %d/100", same)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
