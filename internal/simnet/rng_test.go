package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(2)
	const n, trials = 8, 80000
	var buckets [n]int
	for i := 0; i < trials; i++ {
		buckets[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range buckets {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d has %d, want ~%d", i, c, want)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("Range(5,9) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Range(5,9) only produced %d distinct values", len(seen))
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(4)
	const mean = 1000 * Nanosecond
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > float64(mean)*0.05 {
		t.Fatalf("Exp mean = %v, want ~%v", got, float64(mean))
	}
	if r.Exp(0) != 0 || r.Exp(-5) != 0 {
		t.Fatal("Exp of non-positive mean should be 0")
	}
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(5)
	lo, hi := 16, 65536
	small := 0
	for i := 0; i < 20000; i++ {
		v := r.Pareto(lo, hi, 1.2)
		if v < lo || v > hi {
			t.Fatalf("Pareto out of bounds: %d", v)
		}
		if v < 4*lo {
			small++
		}
	}
	// A heavy-tailed law concentrates mass near lo.
	if small < 10000 {
		t.Fatalf("Pareto does not look heavy-tailed: only %d/20000 below %d", small, 4*lo)
	}
}

func TestRNGForkDecorrelates(t *testing.T) {
	r := NewRNG(9)
	f := r.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if r.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked stream matched parent %d/1000 times", same)
	}
}

// Property: a keyed fork's stream is a pure function of (parent state, key)
// — independent of how many other keyed forks were taken, in what order, or
// through which map-iteration order a manifest loader happened to visit
// nodes. This is the determinism contract the testnet harness leans on.
func TestRNGForkKeyOrderIndependent(t *testing.T) {
	const nodes = 64
	draw := func(r *RNG) [4]uint64 {
		var v [4]uint64
		for i := range v {
			v[i] = r.Uint64()
		}
		return v
	}

	// Reference: fork keys in ascending order.
	want := map[uint64][4]uint64{}
	ref := NewRNG(42)
	for k := uint64(0); k < nodes; k++ {
		want[k] = draw(ref.ForkKey(k))
	}

	// Same keys visited through a shuffled order (simulating map iteration).
	order := make([]uint64, nodes)
	for i := range order {
		order[i] = uint64(i)
	}
	for i, sh := len(order)-1, NewRNG(7); i > 0; i-- {
		j := sh.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	re := NewRNG(42)
	for _, k := range order {
		if got := draw(re.ForkKey(k)); got != want[k] {
			t.Fatalf("ForkKey(%d) stream changed under reordering: got %v want %v", k, got, want[k])
		}
	}
}

func TestRNGForkKeyDoesNotAdvanceParent(t *testing.T) {
	a, b := NewRNG(11), NewRNG(11)
	for k := uint64(0); k < 100; k++ {
		a.ForkKey(k)
		a.ForkString("node/x")
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("keyed forks advanced the parent stream")
		}
	}
}

func TestRNGForkKeyDecorrelates(t *testing.T) {
	r := NewRNG(13)
	// Adjacent keys must give unrelated streams, and streams must differ
	// from the parent's own.
	a, b := r.ForkKey(1), r.ForkKey(2)
	same := 0
	for i := 0; i < 1000; i++ {
		av := a.Uint64()
		if av == b.Uint64() {
			same++
		}
		if av == r.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("keyed forks correlated: %d collisions/1000", same)
	}
}

func TestRNGForkStringMatchesAcrossInstances(t *testing.T) {
	f := func(seed uint64, key string) bool {
		x := NewRNG(seed).ForkString(key)
		y := NewRNG(seed).ForkString(key)
		for i := 0; i < 8; i++ {
			if x.Uint64() != y.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkStringDistinctKeys(t *testing.T) {
	r := NewRNG(17)
	a, b := r.ForkString("drop/edge/0/rail0"), r.ForkString("drop/edge/0/rail1")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct string keys correlated: %d collisions/1000", same)
	}
}

// Property: Range always stays within its bounds for arbitrary valid inputs.
func TestRNGRangeProperty(t *testing.T) {
	f := func(seed uint64, a, b uint16) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		v := NewRNG(seed).Range(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
