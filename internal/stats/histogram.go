// Package stats provides the measurement substrate for newmad: counters,
// log-scale histograms, labeled time series and plain-text tables. The
// experiment harness (internal/exp) renders every reproduced table and
// figure through this package, so the output format of `madbench` is
// uniform across experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram records a distribution of non-negative float64 samples in
// logarithmic buckets (powers of 2 by default), keeping exact aggregates
// (count/sum/min/max) alongside for precise means. The zero value is ready
// to use.
//
// All methods are safe for concurrent use: the engine core records
// plan and delivery latencies from several pump goroutines at once while
// reporting code reads quantiles, so every access is serialized on an
// internal mutex. Merge snapshots its argument before locking the
// receiver, so two histograms can be merged in either direction without a
// lock-order constraint.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int]uint64 // bucket index -> count
	count   uint64
	sum     float64
	min     float64
	max     float64
	// samples keeps an exact reservoir of up to reservoirCap values so
	// quantiles stay accurate for the modest sample counts the experiments
	// produce; beyond that, quantiles fall back to bucket interpolation.
	samples  []float64
	overflow bool
}

const reservoirCap = 1 << 16

// Add records one sample. Negative samples are clamped to zero (durations
// in the simulator are never negative; clamping keeps the histogram total
// consistent with the counter totals even if a caller rounds badly).
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.addLocked(v)
	h.mu.Unlock()
}

func (h *Histogram) addLocked(v float64) {
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
		h.min = math.Inf(1)
		h.max = math.Inf(-1)
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < reservoirCap {
		h.samples = append(h.samples, v)
	} else {
		h.overflow = true
	}
}

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	return int(math.Floor(math.Log2(v))) + 1
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.meanLocked()
}

func (h *Histogram) meanLocked() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.minLocked()
}

func (h *Histogram) minLocked() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxLocked()
}

func (h *Histogram) maxLocked() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1). With at most reservoirCap
// samples the answer is exact; beyond that it interpolates within log
// buckets, which is adequate for the latency tails reported by madbench.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.minLocked()
	}
	if q >= 1 {
		return h.maxLocked()
	}
	if h.count == 1 || h.min == h.max {
		// One sample, or a degenerate distribution collapsed into a single
		// value: every quantile is that value, whichever bucket it fell in.
		return h.min
	}
	if !h.overflow {
		s := append([]float64(nil), h.samples...)
		sort.Float64s(s)
		idx := q * float64(len(s)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		if lo == hi {
			return s[lo]
		}
		frac := idx - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	// Bucket interpolation. The interpolated point is clamped to the exact
	// [Min, Max] envelope: log buckets are wider than the data they hold, so
	// raw interpolation can otherwise report a quantile outside the range of
	// any recorded sample (acute for single-bucket distributions, where every
	// quantile must collapse toward the one occupied bucket's samples).
	target := q * float64(h.count)
	idxs := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		idxs = append(idxs, b)
	}
	sort.Ints(idxs)
	var cum float64
	for _, b := range idxs {
		n := float64(h.buckets[b])
		if cum+n >= target {
			lo, hi := bucketBounds(b)
			frac := (target - cum) / n
			return h.clampLocked(lo + frac*(hi-lo))
		}
		cum += n
	}
	return h.maxLocked()
}

// clampLocked bounds an interpolated quantile to the exact sample envelope.
func (h *Histogram) clampLocked(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return math.Pow(2, float64(b-1)), math.Pow(2, float64(b))
}

// Clone returns a deep copy of h. The copy shares nothing with the
// original, so it can be serialized or merged while the original keeps
// absorbing samples (telemetry snapshots clone under the owner's lock and
// do the expensive quantile math outside it).
func (h *Histogram) Clone() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cloneLocked()
}

func (h *Histogram) cloneLocked() *Histogram {
	out := &Histogram{
		count:    h.count,
		sum:      h.sum,
		min:      h.min,
		max:      h.max,
		overflow: h.overflow,
	}
	if h.buckets != nil {
		out.buckets = make(map[int]uint64, len(h.buckets))
		for b, n := range h.buckets {
			out.buckets[b] = n
		}
	}
	if len(h.samples) > 0 {
		out.samples = append(make([]float64, 0, len(h.samples)), h.samples...)
	}
	return out
}

// Buckets returns a copy of the log2 bucket counts, keyed by bucket index
// (see bucketOf: bucket 0 holds [0,1), bucket b>0 holds [2^(b-1), 2^b)).
// Together with Count/Sum/Min/Max this is the mergeable wire form of a
// histogram — FromBuckets reconstructs a quantile-capable Histogram from
// it on the other side of a JSON boundary.
func (h *Histogram) Buckets() map[int]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.buckets) == 0 {
		return nil
	}
	out := make(map[int]uint64, len(h.buckets))
	for b, n := range h.buckets {
		out[b] = n
	}
	return out
}

// FromBuckets reconstructs a Histogram from its mergeable wire form: the
// log2 bucket counts plus the exact aggregates. The reconstruction has no
// sample reservoir, so quantiles interpolate within buckets (clamped to
// the [min,max] envelope) — exactly the overflow behavior of a histogram
// that outlived its reservoir. Inconsistent inputs (count 0 with buckets)
// yield an empty histogram.
func FromBuckets(buckets map[int]uint64, count uint64, sum, min, max float64) *Histogram {
	if count == 0 {
		return &Histogram{}
	}
	h := &Histogram{
		buckets:  make(map[int]uint64, len(buckets)),
		count:    count,
		sum:      sum,
		min:      min,
		max:      max,
		overflow: true,
	}
	for b, n := range buckets {
		h.buckets[b] = n
	}
	return h
}

// Merge folds other into h. The argument is snapshotted before the
// receiver locks, so concurrent merges in opposite directions cannot
// deadlock (each sees a consistent point-in-time view of the other).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	snap := other.Clone()
	if snap.count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
		h.min = math.Inf(1)
		h.max = math.Inf(-1)
	}
	for b, n := range snap.buckets {
		h.buckets[b] += n
	}
	h.count += snap.count
	h.sum += snap.sum
	if snap.min < h.min {
		h.min = snap.min
	}
	if snap.max > h.max {
		h.max = snap.max
	}
	for _, v := range snap.samples {
		if len(h.samples) < reservoirCap {
			h.samples = append(h.samples, v)
		} else {
			h.overflow = true
			break
		}
	}
	if snap.overflow {
		h.overflow = true
	}
}

// String summarizes the distribution for debug output.
func (h *Histogram) String() string {
	s := h.Clone()
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.count, s.meanLocked(), s.quantileLocked(0.5), s.quantileLocked(0.99), s.maxLocked())
}
