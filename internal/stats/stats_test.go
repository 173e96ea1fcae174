package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("zero histogram not empty")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 15 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramQuantilesExact(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1 {
		t.Fatalf("p50 = %v, want ~50.5", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-99) > 1.5 {
		t.Fatalf("p99 = %v, want ~99", q)
	}
	if h.Quantile(0) != 1 {
		t.Fatalf("p0 = %v, want 1", h.Quantile(0))
	}
	if h.Quantile(1) != 100 {
		t.Fatalf("p100 = %v, want 100", h.Quantile(1))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Add(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: min=%v", h.Min())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Add(1)
		b.Add(3)
	}
	a.Merge(&b)
	if a.Count() != 20 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Mean() != 2 {
		t.Fatalf("merged mean = %v", a.Mean())
	}
	if a.Min() != 1 || a.Max() != 3 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
}

// TestHistogramOverflowQuantiles: a periodic distribution past 65 536
// samples keeps its quantiles within the stated error of the exact ones.
func TestHistogramOverflowQuantiles(t *testing.T) {
	vals := make([]float64, 1<<16+5000)
	for i := range vals {
		vals[i] = float64(i % 1024)
	}
	checkQuantiles(t, vals)
}

// Property: mean always lies within [min, max].
func TestHistogramMeanBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		any := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp to the magnitudes the simulator produces (durations in
			// ns); unbounded float64 sums overflow and say nothing useful.
			h.Add(math.Mod(math.Abs(v), 1e12))
			any = true
		}
		if !any {
			return true
		}
		m := h.Mean()
		return m >= h.Min()-1e-9 && m <= h.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotonically non-decreasing in q.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Add(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestSet(t *testing.T) {
	var s Set
	s.Counter("a").Add(3)
	s.Counter("a").Add(2)
	if s.CounterValue("a") != 5 {
		t.Fatalf("set counter = %d", s.CounterValue("a"))
	}
	if s.CounterValue("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	s.Histogram("h").Add(7)
	if s.Histogram("h").Count() != 1 {
		t.Fatal("histogram not shared by name")
	}
	if _, ok := s.Gauge("missing"); ok {
		t.Fatal("missing gauge reported present")
	}
	cn, hn := s.Names()
	if len(cn) != 1 || len(hn) != 1 {
		t.Fatalf("names = %v %v", cn, hn)
	}
	if !strings.Contains(s.Dump(), "counter") {
		t.Fatal("dump missing counter line")
	}
}

// TestServeReadersRunUnlocked pins the Serve contract: served names resolve
// through CounterValue, Gauge and Dump (counters summed, gauges the largest)
// without being listed by Names, and readers run outside the Set's own
// mutex — this one calls back into the Set, which would self-deadlock
// otherwise (an engine's reader takes locks that rank above it).
func TestServeReadersRunUnlocked(t *testing.T) {
	var s Set
	s.Counter("stored").Add(2)
	for i := 1; i <= 3; i++ {
		v := uint64(i)
		s.Serve(func(counter func(string, uint64), gauge func(string, float64)) {
			counter("served", v*s.Counter("stored").Value())
			gauge("peak", float64(v))
		})
	}
	if got := s.CounterValue("served"); got != 12 {
		t.Fatalf("served counter = %d, want 2*(1+2+3)", got)
	}
	if v, ok := s.Gauge("peak"); !ok || v != 3 {
		t.Fatalf("served gauge = %v, %v; want the largest, 3", v, ok)
	}
	if s.CounterValue("stored") != 2 || s.CounterValue("missing") != 0 {
		t.Fatal("stored or missing name disturbed by readers")
	}
	if cn, _ := s.Names(); len(cn) != 1 {
		t.Fatalf("Names lists served values: %v", cn)
	}
	dump := s.Dump()
	for _, want := range []string{"served", "stored", "peak"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.Caption = "two rows"
	out := tb.String()
	for _, want := range []string{"== demo ==", "alpha", "beta", "2.50", "(two rows)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tb := NewTable("x", "only")
	tb.AddRow("a", "b", "c")
	if len(tb.Rows[0]) != 1 {
		t.Fatalf("extra cells not dropped: %v", tb.Rows[0])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		3:      "3",
		1234:   "1234",
		2.5:    "2.50",
		150.25: "150.2",
		0.125:  "0.1250",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
