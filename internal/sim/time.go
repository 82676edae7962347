// Package sim provides the shared simulation substrate: an integer tick
// clock in which both the 4 GHz CPU clock and the 3 GHz DDR5 bus clock are
// exact, and a deterministic random-number generator.
//
// One tick is 1/12 of a nanosecond. At that resolution a 4 GHz CPU cycle is
// exactly 3 ticks, a 3 GHz memory-bus cycle is exactly 4 ticks, and every
// DDR5 timing parameter used by the paper (tRCD = 14 ns, tRC = 46 ns,
// tREFI = 3900 ns, tDRFMab = 280 ns, ...) is an exact integer.
package sim

import "fmt"

// Tick is a point in simulated time (or a duration), in units of 1/12 ns.
type Tick int64

// TicksPerNS is the number of ticks in one nanosecond.
const TicksPerNS = 12

// Clock-derived constants for the baseline system of Table 2.
const (
	// CPUCycle is the period of the 4 GHz out-of-order cores.
	CPUCycle Tick = 3
	// MemCycle is the period of the 3 GHz (6000 MT/s) memory bus clock.
	MemCycle Tick = 4
)

// Forever is a sentinel "never" time used by schedulers.
const Forever Tick = 1<<62 - 1

// NS converts a duration in nanoseconds to ticks. It panics if the duration
// is not representable exactly, which catches configuration mistakes early:
// every timing in the DDR5 model must be an exact multiple of 1/12 ns.
func NS(ns float64) Tick {
	t := Tick(ns*TicksPerNS + 0.5)
	if diff := float64(t) - ns*TicksPerNS; diff > 1e-6 || diff < -1e-6 {
		panic(fmt.Sprintf("sim.NS(%v): not an exact tick multiple", ns))
	}
	return t
}

// Nanoseconds reports the tick duration in (possibly fractional) nanoseconds.
func (t Tick) Nanoseconds() float64 { return float64(t) / TicksPerNS }

// Microseconds reports the tick duration in microseconds.
func (t Tick) Microseconds() float64 { return float64(t) / (TicksPerNS * 1e3) }

// Milliseconds reports the tick duration in milliseconds.
func (t Tick) Milliseconds() float64 { return float64(t) / (TicksPerNS * 1e6) }

// String formats the time with a readable unit.
func (t Tick) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t >= TicksPerNS*1e6:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= TicksPerNS*1e3:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	}
}

// MinTick returns the smaller of a and b.
func MinTick(a, b Tick) Tick {
	if a < b {
		return a
	}
	return b
}

// MaxTick returns the larger of a and b.
func MaxTick(a, b Tick) Tick {
	if a > b {
		return a
	}
	return b
}

// AlignUp rounds t up to the next multiple of period (used to align command
// issue to bus-clock edges).
func AlignUp(t, period Tick) Tick {
	if period <= 1 {
		return t
	}
	rem := t % period
	if rem == 0 {
		return t
	}
	return t + period - rem
}
