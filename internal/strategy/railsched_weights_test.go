package strategy

import (
	"math"
	"testing"

	"newmad/internal/packet"
)

// Tests for the stripe weights' input surface — hostile bandwidths in the
// capability records — and the zero-alloc guarantee of the placement reads.

// TestScheduledRailNonFiniteWeightsSanitized pins the fix for the silent
// striping collapse: a +Inf weight used to be admitted verbatim, making the
// stripe total non-finite so the weighted walk fell through and every bulk
// transfer landed on the last rail. A non-finite bandwidth now sanitizes to
// weight 0: that rail carries no stripe and the honest rails share them.
func TestScheduledRailNonFiniteWeightsSanitized(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
		rails := homogeneousRails(3)
		rails[0].Bandwidth = bad
		s := NewScheduledRail(rails)
		for i, v := range s.weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("bandwidth %v: weight %d is non-finite after sanitization: %v", bad, i, s.weights)
			}
		}
		counts := stripeCountsProp(s, 3, 300, 7, 1)
		if counts == nil {
			t.Fatalf("bandwidth %v: bulk transfer not placed on exactly one rail", bad)
		}
		if counts[0] != 0 || counts[1] == 0 || counts[2] == 0 {
			t.Fatalf("bandwidth %v on rail 0: stripe counts %v, want rail 0 empty and the others used", bad, counts)
		}
	}
}

// TestScheduledRailBulkOnExactlyOneRail pins what the pump's per-rail
// probe relies on: every bulk transfer is eligible on exactly one rail of a
// table that describes this node, and on every rail of a table that does
// not (mismatched count, or a single rail) — traffic is admitted rather
// than stranded.
func TestScheduledRailBulkOnExactlyOneRail(t *testing.T) {
	s := NewScheduledRail(homogeneousRails(3))
	if stripeCountsProp(s, 3, 64, 5, 11) == nil {
		t.Fatal("a bulk transfer was eligible on no rail, or on more than one")
	}
	p := &packet.Packet{Class: packet.ClassBulk, Flow: 5, Msg: 11, Seq: 0}
	for _, count := range []int{4, 1} {
		for ri := 0; ri < count; ri++ {
			if !s.Eligible(p, RailInfo{Index: ri, Count: count}) {
				t.Fatalf("3-rail policy asked about a %d-rail table: rail %d refused bulk", count, ri)
			}
		}
	}
}

// TestScheduledRailZeroAllocs pins the immutable scheduler's whole point:
// the hot-path placement reads — Eligible for every class, the stripe walk
// — allocate nothing and take no locks. (The engine-side gate in
// internal/perf covers the same path through the pump; this one isolates
// the policy.)
func TestScheduledRailZeroAllocs(t *testing.T) {
	rails := schedRails()
	s := NewScheduledRail(rails)
	bulk := &packet.Packet{Class: packet.ClassBulk, Flow: 3, Msg: 5, Seq: 9}
	small := &packet.Packet{Class: packet.ClassSmall, Payload: make([]byte, 1024)}
	ctrl := &packet.Packet{Class: packet.ClassControl}
	sink := false
	allocs := testing.AllocsPerRun(1000, func() {
		for ri := 0; ri < 3; ri++ {
			ri := RailInfo{Index: ri, Count: 3, Caps: rails[ri]}
			sink = s.Eligible(bulk, ri) || sink
			sink = s.Eligible(small, ri) || sink
			sink = s.Eligible(ctrl, ri) || sink
		}
		bulk.Seq++
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("rail scheduling hot path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// FuzzScheduledRailBandwidths feeds raw float bit patterns (every NaN
// payload, both infinities, subnormals, negative zero) as per-rail
// Bandwidth through NewScheduledRail and checks that whatever survives
// sanitization still places every bulk transfer on exactly one rail.
func FuzzScheduledRailBandwidths(f *testing.F) {
	f.Add(uint64(0x7FF0000000000000), uint64(0xFFF8000000000000), uint64(0x3FE0000000000000), uint8(3))
	f.Add(uint64(0x8000000000000000), uint64(0x0000000000000001), uint64(0x7FF0000000000001), uint8(2))
	f.Add(uint64(0), uint64(0), uint64(0), uint8(4))
	f.Fuzz(func(t *testing.T, a, b, c uint64, nRaw uint8) {
		railN := 2 + int(nRaw%3)
		rails := homogeneousRails(railN)
		for i, bits := range []uint64{a, b, c} {
			if i < railN {
				rails[i].Bandwidth = math.Float64frombits(bits)
			}
		}
		s := NewScheduledRail(rails)
		for i, v := range s.weights {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("weight %d invalid after sanitization: %v", i, s.weights)
			}
		}
		for seq := 0; seq < 32; seq++ {
			p := &packet.Packet{Class: packet.ClassBulk, Flow: 9, Msg: packet.MsgID(a % 1000), Seq: seq}
			placed := -1
			for ri := 0; ri < railN; ri++ {
				if s.Eligible(p, RailInfo{Index: ri, Count: railN}) {
					if placed != -1 {
						t.Fatalf("seq %d eligible on rails %d and %d", seq, placed, ri)
					}
					placed = ri
				}
			}
			if placed == -1 {
				t.Fatalf("seq %d eligible nowhere", seq)
			}
		}
	})
}
