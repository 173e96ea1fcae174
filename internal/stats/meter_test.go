package stats

import (
	"math"
	"testing"
)

func TestEWMADecay(t *testing.T) {
	e := NewEWMA(1000) // 1 µs half-life
	e.Update(100, 0)
	if v := e.Value(); v != 100 {
		t.Fatalf("seed value = %v, want 100", v)
	}
	// After exactly one half-life observing 0, the average must sit halfway.
	e.Update(0, 1000)
	if v := e.Value(); math.Abs(v-50) > 0.01 {
		t.Fatalf("after one half-life = %v, want 50", v)
	}
	// Out-of-order timestamps must not blow up (treated as no elapsed time).
	e.Update(0, 500)
	if v := e.Value(); v != 50 {
		t.Fatalf("out-of-order update moved value to %v", v)
	}
}

func TestEWMAUnprimed(t *testing.T) {
	e := NewEWMA(0)
	if e.Value() != 0 {
		t.Fatal("fresh EWMA should read 0")
	}
}

func TestRateMeterSteadyRate(t *testing.T) {
	r := NewRateMeter(1e6)
	// 10 events per microsecond = 1e7/s, observed over many periods so the
	// EWMA converges.
	total := uint64(0)
	for i := int64(1); i <= 100; i++ {
		total += 10
		r.Observe(total, i*1000)
	}
	got := r.PerSecond()
	want := 1e7
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("steady rate = %g, want ~%g", got, want)
	}
}

func TestRateMeterReset(t *testing.T) {
	r := NewRateMeter(1e6)
	r.Observe(1000, 0)
	r.Observe(2000, 1e6)
	if r.PerSecond() <= 0 {
		t.Fatal("rate should be positive after growth")
	}
	before := r.PerSecond()
	// A counter reset (restart) must re-seed, not produce a negative rate.
	r.Observe(5, 2e6)
	if r.PerSecond() != before {
		t.Fatalf("reset changed rate to %v", r.PerSecond())
	}
	r.Observe(1005, 3e6)
	if r.PerSecond() <= 0 {
		t.Fatal("rate should recover after reset")
	}
}
