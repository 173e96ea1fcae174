package stats

import (
	"math"
	"sync"
	"testing"
)

func TestSpansObserveAndSnapshot(t *testing.T) {
	s := NewSpans(2, 3, 2)
	s.Observe(0, 1, 0, 100)
	s.Observe(0, 1, 0, 200)
	s.Observe(1, 2, 1, 50)
	s.Observe(1, 2, -1, 7) // negative rail folds into rail 0

	cells := s.Snapshot()
	if len(cells) != 3 {
		t.Fatalf("Snapshot cells = %d, want 3", len(cells))
	}
	// (kind, class, rail) order.
	c0 := cells[0]
	if c0.Kind != 0 || c0.Class != 1 || c0.Rail != 0 {
		t.Fatalf("cell 0 indices = (%d,%d,%d)", c0.Kind, c0.Class, c0.Rail)
	}
	if c0.Hist.Count() != 2 || c0.Hist.Sum() != 300 {
		t.Fatalf("cell 0 = %v", c0.Hist)
	}
	if cells[1].Kind != 1 || cells[1].Class != 2 || cells[1].Rail != 0 || cells[1].Hist.Count() != 1 {
		t.Fatalf("cell 1 = %+v", cells[1])
	}
	if cells[2].Rail != 1 || cells[2].Hist.Sum() != 50 {
		t.Fatalf("cell 2 = %+v", cells[2])
	}

	// Snapshots are deep copies: mutating the family afterwards must not
	// show through.
	s.Observe(0, 1, 0, 999)
	if c0.Hist.Count() != 2 {
		t.Fatalf("snapshot aliased the live histogram")
	}
}

func TestSpansOutOfRangeDropped(t *testing.T) {
	s := NewSpans(1, 1, 1)
	s.Observe(5, 0, 0, 1)
	s.Observe(0, 5, 0, 1)
	s.Observe(0, 0, 5, 1)
	s.Observe(-1, 0, 0, 1)
	if got := s.Snapshot(); len(got) != 0 {
		t.Fatalf("out-of-range observations were filed: %+v", got)
	}
}

func TestSpansTotalMergesAcrossCells(t *testing.T) {
	s := NewSpans(2, 2, 2)
	s.Observe(0, 0, 0, 10)
	s.Observe(0, 1, 1, 30)
	s.Observe(1, 0, 0, 999) // different kind: excluded
	tot := s.Total(0)
	if tot.Count() != 2 || tot.Sum() != 40 {
		t.Fatalf("Total(0) = %v", tot)
	}
	if got := s.Total(7); got.Count() != 0 {
		t.Fatalf("Total(out-of-range) = %v", got)
	}
}

func TestSpansNilSafe(t *testing.T) {
	var s *Spans
	s.Observe(0, 0, 0, 1)
	if s.Snapshot() != nil {
		t.Fatal("nil Snapshot() != nil")
	}
	if s.Total(0).Count() != 0 {
		t.Fatal("nil Total not empty")
	}
}

// TestSpansConcurrent exercises Observe against Snapshot/Total under the
// race detector: the per-cell mutexes must make a scrape safe against a
// live datapath.
func TestSpansConcurrent(t *testing.T) {
	s := NewSpans(3, 4, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Observe(g%3, i%4, i%2, float64(i))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Snapshot()
				s.Total(0)
			}
		}()
	}
	wg.Wait()
	var n uint64
	for _, c := range s.Snapshot() {
		n += c.Hist.Count()
	}
	if n != 4*2000 {
		t.Fatalf("samples recorded = %d, want %d", n, 4*2000)
	}
}

func TestHistogramClone(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	c := h.Clone()
	if c.Count() != h.Count() || c.Sum() != h.Sum() || c.Min() != h.Min() || c.Max() != h.Max() {
		t.Fatalf("clone aggregates diverge: %v vs %v", c, h)
	}
	if got, want := c.Quantile(0.5), h.Quantile(0.5); got != want {
		t.Fatalf("clone p50 = %v, want %v", got, want)
	}
	h.Add(1e9)
	if c.Count() != 100 || c.Max() == h.Max() {
		t.Fatalf("clone aliased the original")
	}
	// Merging into a clone must not write through to the original either.
	c.Merge(h)
	if h.Count() != 101 {
		t.Fatalf("merge into clone mutated the original: %v", h)
	}
}

func TestHistogramFromBucketsRoundTrip(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	r := FromBuckets(h.Buckets(), h.Count(), h.Sum(), h.Min(), h.Max())
	if r.Count() != h.Count() || r.Sum() != h.Sum() || r.Min() != h.Min() || r.Max() != h.Max() {
		t.Fatalf("aggregates diverge: %v vs %v", r, h)
	}
	// The rebuilt histogram holds the same counts, so it answers exactly.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := r.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("q%.2f = %v, histogram %v", q, got, want)
		}
	}
	// Reconstructions merge like any histogram — the fleet roll-up path.
	m := &Histogram{}
	m.Merge(r)
	m.Merge(r)
	if m.Count() != 2*h.Count() || m.Sum() != 2*h.Sum() {
		t.Fatalf("merged reconstruction = %v", m)
	}
}

func TestHistogramFromBucketsEmpty(t *testing.T) {
	r := FromBuckets([]Bucket{{Idx: 3, N: 5}}, 0, 0, math.Inf(1), math.Inf(-1))
	if r.Count() != 0 || r.Quantile(0.5) != 0 {
		t.Fatalf("empty reconstruction = %v", r)
	}
	if (&Histogram{}).Buckets() != nil {
		t.Fatal("empty Buckets() != nil")
	}
}
