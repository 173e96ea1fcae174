package simnet

import (
	"sync"
	"time"
)

// Runtime abstracts "what time is it and call me back later" so that the
// optimization engine (internal/core) runs unchanged over two substrates:
//
//   - the discrete-event Engine, where time is virtual and callbacks run on
//     the single simulation goroutine; and
//   - RealRuntime, where time is the wall clock and callbacks arrive on
//     timer goroutines (used with the real TCP mesh driver).
//
// Components written against Runtime must therefore be safe for concurrent
// callbacks; under the Engine that safety is simply never exercised. The
// chaos injectors (internal/chaos) schedule their holds here too, which is
// what makes a Delay or Reorder fault replayable on the virtual clock.
type Runtime interface {
	Clock
	// Schedule arranges for fn to run after d. The returned CancelFunc
	// deschedules it, reporting whether the callback was prevented (the
	// semantics of time.Timer.Stop: false means fn has run or is about to).
	Schedule(d Duration, label string, fn func()) CancelFunc
}

// CancelFunc deschedules a pending callback.
type CancelFunc func() bool

// Schedule implements Runtime on the simulation Engine.
func (e *Engine) Schedule(d Duration, label string, fn func()) CancelFunc {
	id := e.After(d, label, fn)
	return func() bool { return e.Cancel(id) }
}

// RealRuntime implements Runtime over the wall clock. Time zero is the
// moment the runtime was created, so virtual and real traces line up.
type RealRuntime struct {
	start time.Time
	mu    sync.Mutex
}

// NewRealRuntime returns a wall-clock runtime anchored at the present.
func NewRealRuntime() *RealRuntime {
	return &RealRuntime{start: time.Now()}
}

// Now returns nanoseconds elapsed since the runtime was created.
func (r *RealRuntime) Now() Time {
	return Time(time.Since(r.start).Nanoseconds())
}

// Schedule arranges fn on a timer goroutine after d of wall time.
func (r *RealRuntime) Schedule(d Duration, _ string, fn func()) CancelFunc {
	t := time.AfterFunc(ToWall(d), fn)
	return t.Stop
}
