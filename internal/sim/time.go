// Package sim provides the discrete-event simulation substrate used by the
// whole platform model: a femtosecond-resolution timeline, named clock
// domains, an event kernel, and shared-resource occupancy accounting.
//
// The simulator is transaction-level: components compute the duration of each
// transaction from protocol parameters and advance the kernel, instead of
// toggling signals cycle by cycle. Background engines (DMA, ICAP) schedule
// completion events on the kernel.
package sim

import "fmt"

// Time is a point on (or a span of) the simulated timeline, in femtoseconds.
// Femtosecond resolution keeps rounding error negligible for non-integer
// clock periods (e.g. 300 MHz) while still covering hours of simulated time
// in a uint64.
type Time uint64

// Common durations.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1000 * Femtosecond
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders t with an automatically chosen unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3f s", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3f ms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3f us", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3f ns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%d fs", uint64(t))
	}
}

// Clock is a named clock domain with a fixed frequency.
type Clock struct {
	name   string
	hz     uint64
	period Time
}

// NewClock returns a clock domain running at hz hertz.
func NewClock(name string, hz uint64) *Clock {
	if hz == 0 {
		panic("sim: zero-frequency clock " + name)
	}
	return &Clock{name: name, hz: hz, period: Time(uint64(Second) / hz)}
}

// Hz returns the clock frequency in hertz.
func (c *Clock) Hz() uint64 { return c.hz }

// Period returns the duration of a single cycle.
func (c *Clock) Period() Time { return c.period }

// Cycles returns the duration of n cycles.
func (c *Clock) Cycles(n uint64) Time { return Time(n) * c.period }

// CyclesIn reports how many full cycles fit in d.
func (c *Clock) CyclesIn(d Time) uint64 { return uint64(d / c.period) }

func (c *Clock) String() string {
	return fmt.Sprintf("%s@%dMHz", c.name, c.hz/1_000_000)
}
