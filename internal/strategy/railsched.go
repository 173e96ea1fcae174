package strategy

import (
	"math"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// ScheduledRail is the capability-aware rail scheduler for multi-rail
// nodes: every placement decision reads the capability records of the
// node's rails, so the same policy serves homogeneous striped NICs and
// heterogeneous technology mixes (and, over the real-socket transport,
// TCP rails emulating either).
//
//   - Control frames (RTS/CTS/acks) go to the lowest-latency rail: they are
//     tiny, and their delay is paid on every rendezvous round trip.
//   - Small eager aggregates prefer the low-latency rail but may overflow
//     to any rail whose eager limit (MaxAggregate) admits them — per-rail
//     caps bound the decision exactly as they bound the plan builder.
//   - Bulk transfers (granted rendezvous data, RMA payloads) are striped:
//     each transfer hashes onto one rail in proportion to rail bandwidth.
//     On a heterogeneous node the low-latency rail is kept out of the
//     stripe set (bulk on the latency rail is what the class/rail
//     separation exists to prevent) unless it is the only weighted rail.
//
// Everything is computed once from the capability records at construction
// (sanitized weights, hetero mask, prefix sums), so the scheduler is
// immutable: Eligible and stripe read plain fields, with zero allocations
// and zero locks.
type ScheduledRail struct {
	rails   []caps.Caps
	lowLat  int       // index of the lowest-latency rail
	weights []float64 // sanitized bandwidths; a rail weighted 0 takes no small overflow
	prefix  []float64 // running sums of the hetero-masked stripe weights
	total   float64   // prefix[len-1]; <= 0 means "nothing to stripe onto"
}

// NewScheduledRail builds the scheduler for a node's rails (indexed like
// RailInfo.Index; must match the engine's rail order). Stripe weights are
// bandwidth-proportional.
func NewScheduledRail(rails []caps.Caps) *ScheduledRail {
	s := &ScheduledRail{rails: append([]caps.Caps(nil), rails...)}
	maxBW := 0.0
	for i, c := range s.rails {
		lat := c.PostOverhead + c.WireLatency
		if best := s.rails[s.lowLat]; lat < best.PostOverhead+best.WireLatency {
			s.lowLat = i
		}
		if c.Bandwidth > maxBW {
			maxBW = c.Bandwidth
		}
	}
	s.weights = make([]float64, len(s.rails))
	for i, c := range s.rails {
		s.weights[i] = sanitizeWeight(c.Bandwidth)
	}
	masked := s.weights
	if len(s.rails) > 0 && s.rails[s.lowLat].Bandwidth < maxBW {
		// Heterogeneous: keep bulk off the latency rail when another
		// weighted rail exists.
		rest := 0.0
		for i, v := range s.weights {
			if i != s.lowLat {
				rest += v
			}
		}
		if rest > 0 {
			masked = append([]float64(nil), s.weights...)
			masked[s.lowLat] = 0
		}
	}
	s.prefix = make([]float64, len(masked))
	for i, v := range masked {
		s.total += v
		s.prefix[i] = s.total
	}
	return s
}

// sanitizeWeight maps anything that would poison stripe arithmetic — NaN,
// ±Inf, negatives — to 0 (rail carries nothing). A single +Inf weight would
// make total non-finite and silently collapse every bulk transfer onto the
// last rail.
func sanitizeWeight(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

// Name returns "rail-sched".
func (s *ScheduledRail) Name() string { return "rail-sched" }

// Eligible implements RailPolicy.
func (s *ScheduledRail) Eligible(p *packet.Packet, rail RailInfo) bool {
	if rail.Count <= 1 || len(s.rails) != rail.Count {
		// Single rail, or a rail table that does not describe this node:
		// admit everything rather than strand traffic.
		return true
	}
	switch p.Class {
	case packet.ClassControl:
		return rail.Index == s.lowLat
	case packet.ClassBulk, packet.ClassRMA:
		return rail.Index == s.stripe(p)
	default:
		if rail.Index == s.lowLat {
			return true
		}
		if p.Size() > s.rails[rail.Index].MaxAggregate {
			return false
		}
		return s.weights[rail.Index] > 0
	}
}

// stripe deterministically maps one bulk transfer (identified by flow, msg
// and fragment seq) onto a weighted rail slot, so consecutive transfers of
// one flow spread across rails while every frame of one transfer keeps a
// stable placement. Placement is a low-discrepancy walk (golden-ratio
// increments per seq/msg, an R2-sequence offset per flow) rather than a
// plain hash: a burst of only a handful of transfers still splits
// near-proportionally, which a hash cannot guarantee.
func (s *ScheduledRail) stripe(p *packet.Packet) int {
	if s.total <= 0 {
		return s.lowLat
	}
	const (
		phi = 0.6180339887498949 // 1/φ
		r21 = 0.7548776662466927 // R2 sequence, first coordinate
		r22 = 0.5698402909980532 // R2 sequence, second coordinate
	)
	x := float64(uint32(p.Flow))*r21 + float64(uint64(p.Msg)%(1<<20))*r22 + float64(uint32(p.Seq))*phi
	x = (x - math.Floor(x)) * s.total
	for i, ps := range s.prefix {
		if x < ps {
			return i
		}
	}
	return len(s.prefix) - 1
}

var _ RailPolicy = (*ScheduledRail)(nil)
