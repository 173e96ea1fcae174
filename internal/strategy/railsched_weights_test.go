package strategy

import (
	"math"
	"testing"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Tests for the SetWeights input surface: sanitization of hostile vectors,
// edge-case shapes, the atomic-snapshot zero-alloc guarantee, and the
// placer/weight-generation contract the engine's frame cache builds on.

// TestScheduledRailNonFiniteWeightsSanitized pins the fix for the silent
// striping collapse: a +Inf weight used to be admitted verbatim, making the
// stripe total non-finite so the weighted walk fell through and every bulk
// transfer landed on the last rail. Non-finite entries now sanitize to the
// bandwidth default.
func TestScheduledRailNonFiniteWeightsSanitized(t *testing.T) {
	s := NewScheduledRail(homogeneousRails(3))
	def := s.Weights()
	s.SetWeights([]float64{math.Inf(1), math.NaN(), math.Inf(-1)})
	got := s.Weights()
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("weight %d is non-finite after sanitization: %v", i, got)
		}
		if v != def[i] {
			t.Fatalf("weight %d = %v, want bandwidth default %v", i, v, def[i])
		}
	}
	// A single poisoned entry among honest ones must not starve the honest
	// rails either (the collapse sent everything to the last rail). The
	// honest entries match the bandwidth default the poisoned one sanitizes
	// to, so proportional placement means every rail carries traffic.
	s.SetWeights([]float64{math.Inf(1), def[1], def[2]})
	counts := stripeCountsProp(s, 3, 300, 7, 1)
	if counts == nil {
		t.Fatal("bulk transfer not placed on exactly one rail")
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("rail %d starved after non-finite entry: counts %v", i, counts)
		}
	}
}

// TestScheduledRailSetWeightsEdgeCases covers the input shapes the
// controller can produce under churn: vectors longer than the rail table,
// all-negative, all-zero, and zero-duration flap sequences where weights
// are rewritten many times with no placement read in between.
func TestScheduledRailSetWeightsEdgeCases(t *testing.T) {
	s := NewScheduledRail(homogeneousRails(2))
	def := s.Weights()

	s.SetWeights([]float64{1, 2, 3, 4, 5}) // longer than rails: extras dropped
	if w := s.Weights(); len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("overlong input: weights = %v, want [1 2]", w)
	}

	s.SetWeights([]float64{-1, -2}) // all-negative: every entry keeps its default
	if w := s.Weights(); w[0] != def[0] || w[1] != def[1] {
		t.Fatalf("all-negative input: weights = %v, want defaults %v", w, def)
	}

	s.SetWeights([]float64{0, 0}) // all-zero: defaults restored, never a dead scheduler
	if w := s.Weights(); w[0] != def[0] || w[1] != def[1] {
		t.Fatalf("all-zero input: weights = %v, want defaults %v", w, def)
	}

	// Zero-duration flap storm: the last write wins, wholesale.
	for i := 0; i < 100; i++ {
		s.SetWeights([]float64{1, 0})
		s.SetWeights([]float64{0, 1})
	}
	s.SetWeights([]float64{3, 4})
	if w := s.Weights(); w[0] != 3 || w[1] != 4 {
		t.Fatalf("after flap sequence: weights = %v, want [3 4]", w)
	}
	counts := stripeCountsProp(s, 2, 700, 3, 9)
	if counts == nil {
		t.Fatal("bulk transfer not placed on exactly one rail")
	}
	if ideal := 700.0 * 3 / 7; math.Abs(float64(counts[0])-ideal) > 4 {
		t.Fatalf("post-flap stripe split %v, want ~3:4 of 700", counts)
	}
}

// TestScheduledRailEnvelopeUnderWeightChurn is the ROADMAP-mandated
// property: across arbitrary SetWeights sequences — including pathological
// entries, wrong lengths, and zero-duration flaps — the weights in effect
// stay finite and the next placements stay within the documented stripe-
// discrepancy envelope of their proportional share.
func TestScheduledRailEnvelopeUnderWeightChurn(t *testing.T) {
	const envelope = 4.0
	rng := simnet.NewRNG(20260807)
	for trial := 0; trial < 150; trial++ {
		railN := rng.Range(2, 4)
		s := NewScheduledRail(homogeneousRails(railN))
		for step, steps := 0, rng.Range(1, 8); step < steps; step++ {
			w := make([]float64, rng.Range(0, railN+2))
			for i := range w {
				switch rng.Intn(6) {
				case 0:
					w[i] = 0
				case 1:
					w[i] = -rng.Float64()
				case 2:
					w[i] = math.Inf(1)
				case 3:
					w[i] = math.NaN()
				default:
					w[i] = 0.05 + rng.Float64()
				}
			}
			s.SetWeights(w)
		}
		eff := s.Weights()
		total := 0.0
		for i, v := range eff {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("trial %d: effective weight %d invalid: %v", trial, i, eff)
			}
			total += v
		}
		if total <= 0 {
			t.Fatalf("trial %d: no positive weight survived: %v", trial, eff)
		}
		n := rng.Range(32, 1024)
		counts := stripeCountsProp(s, railN, n, packet.FlowID(trial+1), uint64(trial))
		if counts == nil {
			t.Fatalf("trial %d: transfer not placed on exactly one rail", trial)
		}
		for i, c := range counts {
			ideal := float64(n) * eff[i] / total
			if d := math.Abs(float64(c) - ideal); d > envelope {
				t.Fatalf("trial %d: rail %d count %d vs ideal %.1f (n=%d, weights %v): discrepancy %.2f > %v",
					trial, i, c, ideal, n, eff, d, envelope)
			}
		}
	}
}

// TestScheduledRailBulkOnExactlyOneRail pins what the pump's per-rail
// probe relies on: after a retune every bulk transfer is eligible on exactly
// one rail of a table that describes this node, and on every rail of a
// table that does not (mismatched count, or a single rail) — traffic is
// admitted rather than stranded.
func TestScheduledRailBulkOnExactlyOneRail(t *testing.T) {
	s := NewScheduledRail(homogeneousRails(3))
	s.SetWeights([]float64{1, 2, 3})
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

// TestScheduledRailZeroAllocs pins the snapshot swap's whole point: the
// hot-path placement reads — Eligible for every class, the stripe walk —
// allocate nothing and take no locks. (The engine-side gate in
// internal/perf covers the same path through the pump; this one isolates
// the policy.)
func TestScheduledRailZeroAllocs(t *testing.T) {
	rails := schedRails()
	s := NewScheduledRail(rails)
	s.SetWeights([]float64{1, 2, 3})
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

// FuzzSetWeights feeds raw float bit patterns (every NaN payload, both
// infinities, subnormals, negative zero) through SetWeights and checks the
// scheduler's invariants hold for whatever survives sanitization.
func FuzzSetWeights(f *testing.F) {
	f.Add(uint64(0x7FF0000000000000), uint64(0xFFF8000000000000), uint64(0x3FE0000000000000), uint8(3))
	f.Add(uint64(0x8000000000000000), uint64(0x0000000000000001), uint64(0x7FF0000000000001), uint8(2))
	f.Add(uint64(0), uint64(0), uint64(0), uint8(4))
	f.Fuzz(func(t *testing.T, a, b, c uint64, nRaw uint8) {
		railN := 2 + int(nRaw%3)
		s := NewScheduledRail(homogeneousRails(railN))
		s.SetWeights([]float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)})
		eff := s.Weights()
		if len(eff) != railN {
			t.Fatalf("weights length %d, want %d", len(eff), railN)
		}
		anyPositive := false
		for i, v := range eff {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("weight %d invalid after sanitization: %v", i, eff)
			}
			anyPositive = anyPositive || v > 0
		}
		if !anyPositive {
			t.Fatalf("sanitization produced a dead scheduler: %v", eff)
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
