package memsim

import (
	"testing"
	"testing/quick"

	"newmad/internal/simnet"
)

func TestModelValidate(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := m
	bad.CopyBandwidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = m
	bad.CopyLatency = -1
	if bad.Validate() == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestCopyCostMonotone(t *testing.T) {
	m := DefaultModel()
	if m.CopyCost(0) != 0 {
		t.Fatal("zero-byte copy should be free")
	}
	prev := simnet.Duration(0)
	for _, n := range []int{1, 64, 4096, 65536, 1 << 20} {
		c := m.CopyCost(n)
		if c <= prev {
			t.Fatalf("CopyCost(%d) = %v not > previous %v", n, c, prev)
		}
		prev = c
	}
	// 1.6 GB/s: 1 MiB should take ~655 µs plus setup.
	c := m.CopyCost(1 << 20)
	if c < 600*simnet.Microsecond || c > 700*simnet.Microsecond {
		t.Fatalf("1MiB copy = %v, want ~655µs", c)
	}
}

func TestGatherCost(t *testing.T) {
	m := DefaultModel()
	if m.GatherCost(0) != 0 {
		t.Fatal("empty gather should be free")
	}
	if m.GatherCost(4) != 160*simnet.Nanosecond {
		t.Fatalf("GatherCost(4) = %v", m.GatherCost(4))
	}
	// Gather of 8 small entries must be far cheaper than copying 8 KiB.
	if m.GatherCost(8) >= m.CopyCost(8*1024) {
		t.Fatal("gather not cheaper than copy — aggregation trade-off broken")
	}
}

// Property: copy cost is superadditive-resistant — copying a+b bytes in one
// pass is never more expensive than two separate copies (one fixed latency
// amortized). This is the arithmetic behind by-copy aggregation.
func TestCopyCostAggregationProperty(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint16) bool {
		one := m.CopyCost(int(a) + int(b))
		two := m.CopyCost(int(a)) + m.CopyCost(int(b))
		return one <= two
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
