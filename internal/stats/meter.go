package stats

import (
	"math"
	"sync"
)

// Observation substrate for the adaptive controller (internal/control):
// exponentially weighted moving averages and rate meters derived from
// cumulative counters. All timestamps are int64 nanoseconds so the same
// meters run over virtual time (simnet.Time) and wall-clock time without
// this package importing either.

// EWMA is an exponentially weighted moving average with a half-life decay:
// an observation made one half-life ago carries half the weight of one made
// now. Irregular sampling intervals are handled exactly (the decay factor is
// computed from the elapsed time, not from a fixed alpha). The zero value is
// unusable; create with NewEWMA. Safe for concurrent use.
type EWMA struct {
	mu     sync.Mutex
	tau    float64 // decay time constant in nanoseconds
	value  float64
	lastNs int64
	primed bool
}

// NewEWMA returns an average with the given half-life in nanoseconds
// (values <= 0 default to one millisecond).
func NewEWMA(halfLifeNs int64) *EWMA {
	if halfLifeNs <= 0 {
		halfLifeNs = 1e6
	}
	return &EWMA{tau: float64(halfLifeNs) / math.Ln2}
}

// Update folds one observation made at time nowNs into the average. The
// first observation seeds the average; out-of-order timestamps are treated
// as simultaneous (no decay).
func (e *EWMA) Update(v float64, nowNs int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.primed {
		e.value, e.lastNs, e.primed = v, nowNs, true
		return
	}
	dt := nowNs - e.lastNs
	if dt < 0 {
		// Out-of-order: no decay, and keep the clock at its high-water
		// mark so the next in-order observation decays only over time
		// that actually elapsed.
		dt = 0
		nowNs = e.lastNs
	}
	alpha := 1 - math.Exp(-float64(dt)/e.tau)
	e.value += alpha * (v - e.value)
	e.lastNs = nowNs
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// RateMeter turns observations of a cumulative counter into a smoothed
// events-per-second rate: each Observe computes the instantaneous rate since
// the previous observation and folds it into an EWMA. Counter resets
// (decreasing totals) re-seed the meter instead of producing negative rates.
// Safe for concurrent use.
type RateMeter struct {
	mu     sync.Mutex
	ewma   *EWMA
	last   uint64
	lastNs int64
	primed bool
}

// NewRateMeter returns a meter smoothing over the given half-life in
// nanoseconds.
func NewRateMeter(halfLifeNs int64) *RateMeter {
	return &RateMeter{ewma: NewEWMA(halfLifeNs)}
}

// Observe records the counter's cumulative total at time nowNs.
func (r *RateMeter) Observe(total uint64, nowNs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.primed || total < r.last {
		r.last, r.lastNs, r.primed = total, nowNs, true
		return
	}
	dt := nowNs - r.lastNs
	if dt <= 0 {
		// Same-instant observation (two discrete-event callbacks at one
		// virtual time): leave last untouched so the next spaced
		// observation absorbs this delta instead of dropping it.
		return
	}
	inst := float64(total-r.last) / (float64(dt) / 1e9)
	r.ewma.Update(inst, nowNs)
	r.last, r.lastNs = total, nowNs
}

// PerSecond returns the smoothed rate in events per second.
func (r *RateMeter) PerSecond() float64 { return r.ewma.Value() }
