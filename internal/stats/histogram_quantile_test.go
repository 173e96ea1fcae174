package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Every quantile the repository reports (experiment tables, /metrics,
// madmon, the fleet roll-up) comes from Histogram.Quantile, so its edge
// paths must hold: empty histograms, single samples, degenerate
// single-value distributions, and histograms far past 65 536 samples
// (the count at which quantiles once switched algorithm) must all stay
// inside the sample envelope.
func TestQuantileEdgeCases(t *testing.T) {
	// manyOf repeats vals past 1<<16 samples.
	manyOf := func(vals ...float64) *Histogram {
		h := &Histogram{}
		for h.Count() <= 1<<16 {
			h.Add(vals[int(h.Count())%len(vals)])
		}
		return h
	}

	cases := []struct {
		name string
		hist *Histogram
		q    float64
		want float64
	}{
		{"empty p0", &Histogram{}, 0, 0},
		{"empty p50", &Histogram{}, 0.5, 0},
		{"empty p99", &Histogram{}, 0.99, 0},
		{"empty p100", &Histogram{}, 1, 0},

		{"single sample p0", addAll(7), 0, 7},
		{"single sample p50", addAll(7), 0.5, 7},
		{"single sample p99", addAll(7), 0.99, 7},
		{"single sample p100", addAll(7), 1, 7},

		{"two samples p0", addAll(10, 20), 0, 10},
		{"two samples p50", addAll(10, 20), 0.5, 15},
		{"two samples p100", addAll(10, 20), 1, 20},

		{"constant samples p50", addAll(100, 100, 100), 0.5, 100},
		{"constant samples p99", addAll(100, 100, 100), 0.99, 100},

		{"negative q clamps to min", addAll(3, 9), -1, 3},
		{"q beyond 1 clamps to max", addAll(3, 9), 2, 9},

		// Many samples of one value in a wide bucket (1000 lies in
		// [1000, 1007]): the envelope clamp collapses every quantile to it.
		{"overflow single value p1", manyOf(1000), 0.01, 1000},
		{"overflow single value p50", manyOf(1000), 0.5, 1000},
		{"overflow single value p99", manyOf(1000), 0.99, 1000},

		// Many samples, two distinct values in one bucket: quantiles must
		// stay within [1000, 1003].
		{"overflow narrow bucket p50", manyOf(1000, 1003), 0.5, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.hist.Quantile(tc.q)
			if tc.want >= 0 {
				if got != tc.want {
					t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
				}
				return
			}
			// Envelope-only assertion.
			if got < tc.hist.Min() || got > tc.hist.Max() {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]",
					tc.q, got, tc.hist.Min(), tc.hist.Max())
			}
		})
	}
}

func addAll(vals ...float64) *Histogram {
	h := &Histogram{}
	for _, v := range vals {
		h.Add(v)
	}
	return h
}

// TestQuantileOverflowEnvelope: a two-band distribution past 65 536
// samples keeps every quantile within the envelope, monotone in q and
// within the stated error of the exact answer.
func TestQuantileOverflowEnvelope(t *testing.T) {
	vals := make([]float64, 1<<16+1)
	for i := range vals {
		vals[i] = 10 + float64(i%2)*990
	}
	checkQuantiles(t, vals)
}

// TestQuantileStatedError is the layout's contract: against the exact
// quantile of the sorted samples (same rank rule), every reported
// quantile of an integer-valued distribution is within 1/128 of it, at
// every sample count — 65 535, 65 536 and 65 537 included, where
// quantiles once jumped from exact to a guess inside a 2× bucket.
func TestQuantileStatedError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return float64(rng.Intn(1_000_000)) }},
		{"log", func() float64 { return math.Round(math.Exp(rng.Float64() * 21)) }},
		{"small", func() float64 { return float64(rng.Intn(200)) }},
		{"bimodal", func() float64 { return float64(5_000 + rng.Intn(100) + 2_000_000*rng.Intn(2)) }},
		{"constant", func() float64 { return 123_457 }},
	}
	for _, d := range dists {
		for _, n := range []int{1, 2, 3, 10, 127, 1000, 65_535, 65_536, 65_537, 100_000} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = d.draw()
			}
			if !checkQuantiles(t, vals) {
				t.Fatalf("%s distribution, %d samples", d.name, n)
			}
		}
	}
}

// checkQuantiles records vals and checks the quantiles on a grid of q:
// inside [Min, Max], monotone in q, within 1/128 of the exact quantile,
// and answered identically by the histogram rebuilt from its wire form.
func checkQuantiles(t *testing.T, vals []float64) bool {
	t.Helper()
	h := &Histogram{}
	for _, v := range vals {
		h.Add(v)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	exact := func(q float64) float64 {
		r := q * float64(len(s)-1)
		k := int(r)
		if k+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[k] + (s[k+1]-s[k])*(r-float64(k))
	}
	wire := FromBuckets(h.Buckets(), h.Count(), h.Sum(), h.Min(), h.Max())
	prev := math.Inf(-1)
	for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		got, want := h.Quantile(q), exact(q)
		switch {
		case got < h.Min() || got > h.Max():
			t.Errorf("Quantile(%v) = %v outside [%v, %v]", q, got, h.Min(), h.Max())
		case got < prev:
			t.Errorf("Quantile not monotone at q=%v: %v < %v", q, got, prev)
		case math.Abs(got-want) > want/128+1e-9*want:
			t.Errorf("Quantile(%v) = %v, exact %v: error %.4f%% above 1/128",
				q, got, want, 100*math.Abs(got-want)/want)
		case wire.Quantile(q) != got:
			t.Errorf("wire form Quantile(%v) = %v, histogram %v", q, wire.Quantile(q), got)
		}
		prev = got
	}
	return !t.Failed()
}

// TestBucketLayout: every integer lands in the bucket whose bounds hold
// it, buckets tile the integers with no gap, and widths respect 1/64.
func TestBucketLayout(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo, up := BucketBounds(i)
		if i > 0 {
			if _, prevUp := BucketBounds(i - 1); lo != prevUp+1 {
				t.Fatalf("bucket %d starts at %v, previous ends at %v", i, lo, prevUp)
			}
		}
		if lo >= 1<<53 { // beyond exact float integers
			continue
		}
		if i >= 2*subBuckets && up-lo+1 > lo/subBuckets {
			t.Fatalf("bucket %d [%v, %v] wider than 1/%d of its floor", i, lo, up, subBuckets)
		}
		if bucketOf(lo) != i || bucketOf(up) != i || bucketOf(lo-0.5) != i {
			t.Fatalf("bucket %d [%v, %v] does not hold its bounds", i, lo, up)
		}
	}
	if bucketOf(math.MaxFloat64) != numBuckets-1 || bucketOf(0x1p64) != numBuckets-1 {
		t.Fatal("huge samples do not land in the top bucket")
	}
}

// TestFromBucketsBadInput: the wire form comes off the network. Indexes
// outside the layout are dropped without panicking or growing the counts
// past the layout, and counts that disagree with count keep quantiles in
// the envelope.
func TestFromBucketsBadInput(t *testing.T) {
	bad := []Bucket{{Idx: -5, N: 1}, {Idx: math.MaxInt, N: 1}, {Idx: numBuckets, N: 9}, {Idx: 300, N: 2}, {Idx: 7, N: 3}, {Idx: 7, N: 1}}
	for _, count := range []uint64{1, 6, 1000} {
		h := FromBuckets(bad, count, 1e6, 5, 9000)
		if len(h.counts) > numBuckets || h.Buckets()[0] != (Bucket{Idx: 7, N: 4}) {
			t.Fatalf("count %d: rebuilt %d cells, buckets %v", count, len(h.counts), h.Buckets())
		}
		for _, q := range []float64{0.01, 0.5, 0.99} {
			if v := h.Quantile(q); v < 5 || v > 9000 {
				t.Fatalf("count %d: Quantile(%v) = %v outside [5, 9000]", count, q, v)
			}
		}
	}
	if h := FromBuckets(bad, 10, 0, 9, 5); h.Count() != 0 {
		t.Fatal("min > max accepted")
	}
}
