package strategy

import (
	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Cost estimation.
//
// Builders score candidate plans with the very formula the simulated
// driver charges (caps.Caps.ChannelTime), so a plan's predicted benefit
// and its simulated outcome agree by construction. What strategies trade off:
//
//   - each frame pays α (PostOverhead + injection setup) once, however
//     many sub-packets it carries — the win of aggregation;
//   - each sub-packet pays SubHeaderSize bytes of framing — a small,
//     growing tax;
//   - aggregation on gather hardware costs descriptor writes; without
//     gather it costs a staging memcpy of the whole payload — the
//     capability-parameterization axis (E7).

// StageCost returns the host-side preparation cost of sending pkts as one
// frame: zero for a single packet, gather descriptors or a staging copy
// for an aggregate, per the capability record.
func StageCost(c caps.Caps, m memsim.Model, pkts []*packet.Packet) simnet.Duration {
	if len(pkts) <= 1 {
		return 0
	}
	if c.Gather() {
		return m.GatherCost(len(pkts))
	}
	total := 0
	for _, p := range pkts {
		total += p.Size()
	}
	return m.CopyCost(total)
}

// FrameOccupancy returns the time the send channel is held by a frame
// carrying pkts: host preparation plus the capability record's ChannelTime,
// the charge the simulated driver makes.
func FrameOccupancy(c caps.Caps, m memsim.Model, pkts []*packet.Packet) simnet.Duration {
	payload := 0
	for _, p := range pkts {
		payload += p.Size()
	}
	busy, _ := c.ChannelTime(packet.HeaderSize+len(pkts)*packet.SubHeaderSize+payload, payload, true)
	return StageCost(c, m, pkts) + busy
}

// SeparateOccupancy returns the channel time of sending each packet as its
// own frame back to back — the FIFO baseline the Score field compares
// against.
func SeparateOccupancy(c caps.Caps, m memsim.Model, pkts []*packet.Packet) simnet.Duration {
	var d simnet.Duration
	for _, p := range pkts {
		d += FrameOccupancy(c, m, []*packet.Packet{p})
	}
	return d
}

// ScorePlan fills a plan's HostExtra and Score from the cost model.
func ScorePlan(c caps.Caps, m memsim.Model, plan *Plan) {
	plan.HostExtra = StageCost(c, m, plan.Packets)
	plan.Score = SeparateOccupancy(c, m, plan.Packets) - FrameOccupancy(c, m, plan.Packets)
}
