package stats

import (
	"math"
	"sync"
)

// Observation substrate for the adaptive controller (internal/control):
// exponentially weighted moving averages, rate meters derived from
// cumulative counters, and sliding-window accumulators. All timestamps are
// int64 nanoseconds so the same meters run over virtual time (simnet.Time)
// and wall-clock time without this package importing either.

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

// Window is a sliding-window accumulator: samples land in fixed-width time
// buckets and Sum/Count report totals over the most recent window. Old
// buckets are recycled lazily as time advances, so the structure is O(number
// of buckets) regardless of sample volume. Safe for concurrent use.
type Window struct {
	mu     sync.Mutex
	width  int64 // bucket width in nanoseconds
	sums   []float64
	counts []uint64
	epochs []int64 // bucket index (nowNs / width) each slot currently holds
}

// NewWindow returns a window spanning spanNs split into buckets slots
// (minimums: one microsecond span — virtual-time controllers run windows
// far shorter than any wall-clock collector would — and 2 slots).
func NewWindow(spanNs int64, buckets int) *Window {
	if buckets < 2 {
		buckets = 2
	}
	if spanNs < 1000*int64(buckets) {
		spanNs = 1000 * int64(buckets)
	}
	return &Window{
		width:  spanNs / int64(buckets),
		sums:   make([]float64, buckets),
		counts: make([]uint64, buckets),
		epochs: make([]int64, buckets),
	}
}

// Add records one sample at time nowNs.
func (w *Window) Add(v float64, nowNs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := w.slot(nowNs)
	w.sums[i] += v
	w.counts[i]++
}

// slot returns the bucket index for nowNs, recycling a stale slot. Caller
// holds w.mu.
func (w *Window) slot(nowNs int64) int {
	epoch := nowNs / w.width
	i := int(epoch % int64(len(w.sums)))
	if i < 0 {
		i += len(w.sums)
	}
	if w.epochs[i] != epoch {
		w.sums[i], w.counts[i], w.epochs[i] = 0, 0, epoch
	}
	return i
}

// Sum returns the sample total over the window ending at nowNs.
func (w *Window) Sum(nowNs int64) float64 {
	s, _ := w.Totals(nowNs)
	return s
}

// Totals returns the sample sum and count over the window ending at nowNs.
func (w *Window) Totals(nowNs int64) (sum float64, count uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	epoch := nowNs / w.width
	oldest := epoch - int64(len(w.sums)) + 1
	for i := range w.sums {
		if w.epochs[i] >= oldest && w.epochs[i] <= epoch {
			sum += w.sums[i]
			count += w.counts[i]
		}
	}
	return sum, count
}
