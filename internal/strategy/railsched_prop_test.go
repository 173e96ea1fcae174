package strategy

import (
	"math"
	"slices"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Property tests for ScheduledRail's low-discrepancy weighted walk.
//
// A note on the bound: exact ±1 balance for every prefix is the "balanced
// word" property, which for three or more letters with generic densities
// does not exist (Fraenkel's conjecture territory) — no stateless
// placement can achieve it. What the golden-ratio/R2 walk guarantees
// instead, and what these tests pin, is a *bounded* discrepancy envelope:
// per-rail stripe counts stay within a small constant of the ideal
// proportional share — empirically under ±3.5 for every tested
// (weights, length) combination — and, crucially, the deviation does NOT
// grow with sequence length. A plain hash gives O(√n) drift; the walk
// stays flat, which is what "low-discrepancy" buys.

// stripeCountsProp distributes n consecutive bulk transfers of one flow
// and returns per-rail counts.
func stripeCountsProp(s *ScheduledRail, rails, n int, flow packet.FlowID, msgBase uint64) []int {
	counts := make([]int, rails)
	for k := 0; k < n; k++ {
		p := &packet.Packet{Class: packet.ClassBulk, Flow: flow, Msg: packet.MsgID(msgBase), Seq: k}
		placed := -1
		for ri := 0; ri < rails; ri++ {
			if s.Eligible(p, RailInfo{Index: ri, Count: rails}) {
				if placed != -1 {
					// A bulk transfer must map to exactly one rail.
					return nil
				}
				placed = ri
			}
		}
		if placed == -1 {
			return nil
		}
		counts[placed]++
	}
	return counts
}

// homogeneousRails builds n rails with identical capability records:
// identical latency and bandwidth, so no rail is excluded from the stripe
// set as "the latency rail" and the stripe weights are even.
func homogeneousRails(n int) []caps.Caps {
	rails := make([]caps.Caps, n)
	for i := range rails {
		c := caps.TCP
		c.Name = "r" + string(rune('a'+i))
		rails[i] = c
	}
	return rails
}

// bandwidthRails builds rails of identical latency whose bandwidths — and
// so stripe weights — are w. It first swaps w's largest entry into w[0]:
// equal latencies make rail 0 the latency rail, and a latency rail slower
// than the fastest would be masked out of the stripe set.
func bandwidthRails(w []float64) []caps.Caps {
	if i := slices.Index(w, slices.Max(w)); i != 0 {
		w[0], w[i] = w[i], w[0]
	}
	rails := homogeneousRails(len(w))
	for i := range rails {
		rails[i].Bandwidth = w[i]
	}
	return rails
}

// TestScheduledRailStripeDiscrepancyEnvelope: over random weight vectors,
// rail counts 2..4, and sequence lengths up to 1024, every per-rail stripe
// count stays within the envelope of its ideal proportional share, and
// every transfer lands on exactly one rail.
func TestScheduledRailStripeDiscrepancyEnvelope(t *testing.T) {
	const envelope = 3.5
	rng := simnet.NewRNG(20260730)
	for trial := 0; trial < 300; trial++ {
		railN := rng.Range(2, 4)
		w := make([]float64, railN)
		total := 0.0
		for i := range w {
			w[i] = 0.05 + rng.Float64()
			total += w[i]
		}
		s := NewScheduledRail(bandwidthRails(w))
		n := rng.Range(16, 1024)
		flow := packet.FlowID(rng.Uint64())
		msg := rng.Uint64() % (1 << 19)
		counts := stripeCountsProp(s, railN, n, flow, msg)
		if counts == nil {
			t.Fatalf("trial %d: a transfer mapped to zero or several rails", trial)
		}
		for i, c := range counts {
			ideal := float64(n) * w[i] / total
			if dev := math.Abs(float64(c) - ideal); dev > envelope {
				t.Fatalf("trial %d: rail %d got %d of %d stripes, ideal %.1f (deviation %.2f > %.1f)\nweights: %v",
					trial, i, c, n, ideal, dev, envelope, w)
			}
		}
	}
}

// TestScheduledRailStripeNoDrift: the walk's deviation must not grow with
// sequence length — the property that distinguishes a low-discrepancy
// sequence from a hash. Measured at n and 8n, the envelope holds at both
// scales for the same weights.
func TestScheduledRailStripeNoDrift(t *testing.T) {
	const envelope = 4.0
	rng := simnet.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		w := []float64{0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64()}
		total := w[0] + w[1] + w[2]
		s := NewScheduledRail(bandwidthRails(w))
		flow := packet.FlowID(rng.Uint64())
		for _, n := range []int{256, 2048} {
			counts := stripeCountsProp(s, 3, n, flow, 7)
			if counts == nil {
				t.Fatalf("trial %d: bad placement", trial)
			}
			for i, c := range counts {
				ideal := float64(n) * w[i] / total
				if dev := math.Abs(float64(c) - ideal); dev > envelope {
					t.Fatalf("trial %d n=%d: rail %d deviates %.2f > %.1f (drift)", trial, n, i, dev, envelope)
				}
			}
		}
	}
}

// TestScheduledRailEqualWeightsTightBound: for the common homogeneous case
// (equal rails), the walk is a pure golden-rotation Kronecker sequence and
// the counts stay within ±2 of the exact even split for every prefix up to
// 512 — tighter than the generic envelope, and checked at every prefix,
// not just the endpoint.
func TestScheduledRailEqualWeightsTightBound(t *testing.T) {
	for _, railN := range []int{2, 3, 4} {
		s := NewScheduledRail(homogeneousRails(railN))
		counts := make([]int, railN)
		for k := 0; k < 512; k++ {
			p := &packet.Packet{Class: packet.ClassBulk, Flow: 5, Msg: 3, Seq: k}
			for ri := 0; ri < railN; ri++ {
				if s.Eligible(p, RailInfo{Index: ri, Count: railN}) {
					counts[ri]++
				}
			}
			for i, c := range counts {
				ideal := float64(k+1) / float64(railN)
				if dev := math.Abs(float64(c) - ideal); dev > 2.0 {
					t.Fatalf("rails=%d prefix %d: rail %d at %d, ideal %.1f (deviation %.2f)",
						railN, k+1, i, c, ideal, dev)
				}
			}
		}
	}
}
