package strategy

import (
	"math"
	"sync/atomic"

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
//     each transfer hashes onto one rail in proportion to the scheduling
//     weights, which default to rail bandwidth. On a heterogeneous node the
//     low-latency rail is kept out of the stripe set (bulk on the latency
//     rail is what the class/rail separation exists to prevent) unless it
//     is the only weighted rail left.
//
// Weights are runtime-tunable (SetWeights) — the adaptive controller's rail
// knob: a weight of 0 removes a rail from the stripe set and from small
// overflow, draining traffic off it without reconfiguring the topology.
//
// The weights in effect live in one immutable snapshot behind an atomic
// pointer: SetWeights sanitizes and precomputes (hetero mask, prefix sums)
// once per update, and the Eligible/stripe hot path is a single atomic load
// with zero allocations and zero locks. Readers mid-decision keep the
// snapshot they loaded; a concurrent retune affects the next decision.
type ScheduledRail struct {
	rails  []caps.Caps
	lowLat int  // index of the lowest-latency rail
	hetero bool // lowLat rail is strictly slower than the fastest rail

	snap atomic.Pointer[railSnap]
}

// railSnap is one immutable weight configuration. Everything stripe and
// Eligible need per decision is precomputed here so the datapath never
// copies or walks more than it must.
type railSnap struct {
	weights []float64 // sanitized effective weights (what Weights reports)
	prefix  []float64 // running sums of the hetero-masked stripe weights
	total   float64   // prefix[len-1]; <= 0 means "nothing to stripe onto"
}

// NewScheduledRail builds the scheduler for a node's rails (indexed like
// RailInfo.Index; must match the engine's rail order). Initial weights are
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
	if len(s.rails) > 0 {
		s.hetero = s.rails[s.lowLat].Bandwidth < maxBW
	}
	s.publish(s.defaultWeights())
	return s
}

func (s *ScheduledRail) defaultWeights() []float64 {
	w := make([]float64, len(s.rails))
	for i, c := range s.rails {
		w[i] = sanitizeWeight(c.Bandwidth)
	}
	return w
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

// SetWeights replaces the scheduling weights. Missing entries keep their
// bandwidth default; negative entries are ignored (keep the default);
// non-finite entries (NaN, ±Inf) are sanitized to the bandwidth default;
// entries beyond the rail count are dropped. If every weight would be zero
// the defaults are restored (a scheduler with nowhere to place bulk is a
// configuration error, not a useful state).
func (s *ScheduledRail) SetWeights(w []float64) {
	ws := s.defaultWeights()
	anyPositive := false
	for i := range ws {
		if i < len(w) {
			if v := w[i]; v >= 0 && !math.IsInf(v, 1) {
				ws[i] = v
			}
			// NaN fails v >= 0 and +Inf is excluded above: both keep the
			// (already sanitized) bandwidth default, as do negatives.
		}
		if ws[i] > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		ws = s.defaultWeights()
	}
	s.publish(ws)
}

// publish builds and atomically installs the snapshot for ws: hetero mask
// applied once, prefix sums precomputed. This is the only writer path;
// readers never see a partially built snapshot.
func (s *ScheduledRail) publish(ws []float64) {
	sn := &railSnap{weights: ws, prefix: make([]float64, len(ws))}
	masked := ws
	if s.hetero {
		// Keep bulk off the latency rail when another weighted rail exists.
		rest := 0.0
		for i, v := range ws {
			if i != s.lowLat {
				rest += v
			}
		}
		if rest > 0 {
			masked = append([]float64(nil), ws...)
			masked[s.lowLat] = 0
		}
	}
	acc := 0.0
	for i, v := range masked {
		acc += v
		sn.prefix[i] = acc
	}
	sn.total = acc
	s.snap.Store(sn)
}

// Weights returns the (sanitized) weights currently in effect.
func (s *ScheduledRail) Weights() []float64 {
	return append([]float64(nil), s.snap.Load().weights...)
}

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
		return rail.Index == s.stripe(s.snap.Load(), p)
	default:
		if rail.Index == s.lowLat {
			return true
		}
		if p.Size() > s.rails[rail.Index].MaxAggregate {
			return false
		}
		return s.snap.Load().weights[rail.Index] > 0
	}
}

// stripe deterministically maps one bulk transfer (identified by flow, msg
// and fragment seq) onto a weighted rail slot, so consecutive transfers of
// one flow spread across rails while every frame of one transfer keeps a
// stable placement. Placement is a low-discrepancy walk (golden-ratio
// increments per seq/msg, an R2-sequence offset per flow) rather than a
// plain hash: a burst of only a handful of transfers still splits
// near-proportionally, which a hash cannot guarantee.
func (s *ScheduledRail) stripe(sn *railSnap, p *packet.Packet) int {
	if sn.total <= 0 {
		return s.lowLat
	}
	const (
		phi = 0.6180339887498949 // 1/φ
		r21 = 0.7548776662466927 // R2 sequence, first coordinate
		r22 = 0.5698402909980532 // R2 sequence, second coordinate
	)
	x := float64(uint32(p.Flow))*r21 + float64(uint64(p.Msg)%(1<<20))*r22 + float64(uint32(p.Seq))*phi
	x = (x - math.Floor(x)) * sn.total
	for i, ps := range sn.prefix {
		if x < ps {
			return i
		}
	}
	return len(sn.prefix) - 1
}

// RailWeightSetter is implemented by rail policies whose per-rail
// scheduling weights are runtime-tunable (the engine's SetRailWeights knob
// and the controller's rail retuning go through it).
type RailWeightSetter interface {
	SetWeights([]float64)
	Weights() []float64
}

var _ RailPolicy = (*ScheduledRail)(nil)
var _ RailWeightSetter = (*ScheduledRail)(nil)
