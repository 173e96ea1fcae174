// Package simnet provides the discrete-event simulation kernel used by the
// newmad network substrate.
//
// All network-level experiments run in virtual time: a 64-bit nanosecond
// clock advanced by an event heap. Virtual time makes the reproduction
// deterministic and independent of the host machine, which is essential when
// the quantity under study is who wins and by what factor rather than
// absolute wall-clock numbers.
//
// The kernel is deliberately single-threaded: events execute one at a time in
// timestamp order (ties broken by insertion order). Components that need
// concurrency semantics (e.g. a NIC and the optimizer reacting to each other)
// get them by exchanging events, exactly as hardware exchanges interrupts.
package simnet

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is kept distinct
// from time.Duration so that virtual and wall-clock quantities cannot be
// mixed by accident; use FromWall/ToWall for explicit conversions.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Infinity is a time later than any event the kernel will ever execute. It
// is used as "no deadline".
const Infinity Time = 1<<63 - 1

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds with microsecond resolution, e.g.
// "1.000003s". Infinity formats as "+inf".
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return time.Duration(t).String()
}

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// FromWall converts a wall-clock duration into a virtual duration.
func FromWall(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// ToWall converts a virtual duration into a wall-clock duration.
func ToWall(d Duration) time.Duration { return time.Duration(d) }

// Clock exposes the current virtual time. The Engine implements Clock.
type Clock interface {
	// Now returns the current virtual time.
	Now() Time
}

// BandwidthTime returns the time needed to move n bytes at rate bytesPerSec.
// A non-positive rate is a programming error and panics: every link and
// engine in the simulator must declare a real bandwidth.
func BandwidthTime(n int, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("simnet: non-positive bandwidth %v", bytesPerSec))
	}
	return Duration(float64(n) / bytesPerSec * float64(Second))
}
