// Package stats provides the measurement substrate for newmad: counters,
// log-linear histograms, labeled time series and plain-text tables. The
// experiment harness (internal/exp) renders every reproduced table and
// figure through this package, so the output format of `madbench` is
// uniform across experiments.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// The histogram layout: 2^subBits linear buckets per power of two. A
// sample counts in the bucket of its ceiling, so a bucket holds the
// integers [lo, up] of BucketBounds. Below 2*subBuckets every bucket is one
// integer wide; above, a bucket at lo is lo/subBuckets wide or narrower.
// Every sample in this repository is a whole number of nanoseconds or a
// count, so a quantile read at a bucket's midpoint is off by at most
// 1/(2*subBuckets) = 1/128 of the true value, and exact below 128.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	// numBuckets covers every uint64: the top bucket's upper bound is 2^64.
	numBuckets = (64 - subBits + 1) << subBits
	// minPad is the least room a histogram's counts grow by.
	minPad = subBuckets / 2
)

// bucketOf returns the bucket index of a non-negative sample.
func bucketOf(v float64) int {
	if v >= 0x1p64 {
		return numBuckets - 1
	}
	u := uint64(math.Ceil(v))
	s := max(bits.Len64(u)-subBits-1, 0)
	return s<<subBits + int(u>>s)
}

// BucketBounds returns the smallest and largest integer bucket idx holds.
// A sample v counts in idx exactly when lo-1 < v <= up, so up is the
// inclusive upper bound a Prometheus `le` label wants.
func BucketBounds(idx int) (lo, up float64) {
	s := max(idx>>subBits-1, 0)
	m := idx - s<<subBits
	return math.Ldexp(float64(m), s), math.Ldexp(float64(m+1), s) - 1
}

// Bucket is one non-empty bucket in wire form: its index in the layout
// and its count.
type Bucket struct {
	Idx int    `json:"idx"`
	N   uint64 `json:"n"`
}

// Histogram records a distribution of non-negative float64 samples in the
// log-linear layout above, keeping exact aggregates (count/sum/min/max)
// alongside. Its counts cover only the bucket range it has seen: a slice
// starting at bucket base. The zero value is ready to use.
//
// All methods are safe for concurrent use: the engine core records
// plan and delivery latencies from several pump goroutines at once while
// reporting code reads quantiles, so every access is serialized on an
// internal mutex. Merge snapshots its argument before locking the
// receiver, so two histograms can be merged in either direction without a
// lock-order constraint.
type Histogram struct {
	mu     sync.Mutex
	base   int
	counts []uint64 // counts[i] is bucket base+i
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Add records one sample. Negative and NaN samples are clamped to zero
// (durations in the simulator are never negative; clamping keeps the
// histogram total consistent with the counter totals even if a caller
// rounds badly).
func (h *Histogram) Add(v float64) {
	if !(v >= 0) {
		v = 0
	}
	i := bucketOf(v)
	h.mu.Lock()
	j := i - h.base
	if uint(j) >= uint(len(h.counts)) {
		h.cover(i, i+1)
		j = i - h.base
	}
	h.counts[j]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// cover grows the counts to span buckets [lo, hi). The side that grows is
// padded by the current span (at least minPad), so a histogram reaches its
// working range in a few allocations and then stops allocating.
func (h *Histogram) cover(lo, hi int) {
	n := len(h.counts)
	nlo, nhi := h.base, h.base+n
	if n > 0 && lo >= nlo && hi <= nhi {
		return
	}
	pad := max(n, minPad)
	if n == 0 || lo < nlo {
		nlo = max(lo-pad, 0)
	}
	if n == 0 || hi > nhi {
		nhi = min(hi+pad, numBuckets)
	}
	c := make([]uint64, nhi-nlo)
	if n > 0 {
		copy(c[h.base-nlo:], h.counts)
	}
	h.base, h.counts = nlo, c
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
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1): rank q·(n−1), linear
// between the two neighbouring order statistics. Each order statistic is
// its bucket's midpoint clamped to [Min, Max] (the first and last are
// Min and Max), so the answer is within 1/128 of the exact quantile.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	switch {
	case h.count == 0, q <= 0:
		return h.min // 0 when empty
	case q >= 1:
		return h.max
	}
	r := q * float64(h.count-1)
	k := uint64(r)
	// One cumulative walk reads order statistics k and k+1. Counts that
	// fall short of count (a bad wire form) leave the rest at Max.
	stat := [2]float64{h.max, h.max}
	j := 0
	var cum uint64
	for i, n := range h.counts {
		cum += n
		for ; j < 2 && cum > k+uint64(j); j++ {
			stat[j] = h.orderStat(k+uint64(j), h.base+i)
		}
		if j == 2 {
			break
		}
	}
	return stat[0] + (stat[1]-stat[0])*(r-float64(k))
}

// orderStat reads order statistic k, which fell in bucket idx.
func (h *Histogram) orderStat(k uint64, idx int) float64 {
	if k == 0 {
		return h.min
	}
	if k == h.count-1 {
		return h.max
	}
	lo, up := BucketBounds(idx)
	return math.Min(math.Max((lo+up)/2, h.min), h.max)
}

// Clone returns a deep copy of h, its counts trimmed to the occupied
// buckets. The copy shares nothing with the original, so it can be
// serialized or merged while the original keeps absorbing samples
// (telemetry snapshots clone under the owner's lock and do the quantile
// math outside it).
func (h *Histogram) Clone() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo, hi := 0, len(h.counts)
	for lo < hi && h.counts[lo] == 0 {
		lo++
	}
	for hi > lo && h.counts[hi-1] == 0 {
		hi--
	}
	return &Histogram{
		base:   h.base + lo,
		counts: append([]uint64(nil), h.counts[lo:hi]...),
		count:  h.count,
		sum:    h.sum,
		min:    h.min,
		max:    h.max,
	}
}

// Buckets returns the non-empty buckets in index order. Together with
// Count/Sum/Min/Max this is the mergeable wire form of a histogram:
// FromBuckets rebuilds from it a histogram that answers every quantile
// exactly as h does.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Bucket
	for i, n := range h.counts {
		if n > 0 {
			out = append(out, Bucket{Idx: h.base + i, N: n})
		}
	}
	return out
}

// FromBuckets rebuilds a Histogram from its wire form: the buckets plus
// the exact aggregates. It accepts what a network peer may send: buckets
// outside the layout are dropped, and a zero count or min > max yields an
// empty histogram. Counts that do not sum to count still answer every
// quantile within [min, max].
func FromBuckets(buckets []Bucket, count uint64, sum, min, max float64) *Histogram {
	h := &Histogram{}
	if count == 0 || !(min <= max) {
		return h
	}
	h.count, h.sum, h.min, h.max = count, sum, min, max
	for _, b := range buckets {
		if b.Idx >= 0 && b.Idx < numBuckets && b.N > 0 {
			h.cover(b.Idx, b.Idx+1)
			h.counts[b.Idx-h.base] += b.N
		}
	}
	return h
}

// Merge folds other into h, bucket by bucket. The argument is snapshotted
// before the receiver locks, so concurrent merges in opposite directions
// cannot deadlock (each sees a consistent point-in-time view of the other).
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
	if len(snap.counts) > 0 {
		h.cover(snap.base, snap.base+len(snap.counts))
		off := snap.base - h.base
		for i, n := range snap.counts {
			h.counts[off+i] += n
		}
	}
	if h.count == 0 || snap.min < h.min {
		h.min = snap.min
	}
	if h.count == 0 || snap.max > h.max {
		h.max = snap.max
	}
	h.count += snap.count
	h.sum += snap.sum
}

// String summarizes the distribution for debug output.
func (h *Histogram) String() string {
	s := h.Clone()
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.count, s.meanLocked(), s.quantileLocked(0.5), s.quantileLocked(0.99), s.max)
}
