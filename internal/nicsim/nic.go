// Package nicsim is the discrete-event model of the network hardware the
// paper's engine drives: NICs exposing several virtualized send channels
// (the "network multiplexing units"), links with per-request overhead,
// serialization and propagation delay, and a receive path with per-frame
// processing cost.
//
// The central contract with the optimizing layer is the *idle upcall*: a
// channel that finishes serializing a frame notifies its owner, and that —
// not application submission — is what triggers optimization (paper §3).
package nicsim

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
)

// IdleFunc is called on the simulation goroutine when a send channel
// becomes free.
type IdleFunc func(nic *NIC, channel int)

// RecvFunc is called on the simulation goroutine when a frame has been
// fully received and processed by the destination NIC.
type RecvFunc func(src packet.NodeID, f *packet.Frame)

// NIC models one network interface of one node on one fabric.
type NIC struct {
	node   packet.NodeID
	caps   caps.Caps
	mem    memsim.Model
	eng    *simnet.Engine
	fabric *Fabric

	// Counter handles, resolved once: a simulated frame must not pay six
	// map lookups under the Set mutex.
	txFrames, txWireBytes, txPayloadBytes *stats.Counter
	txAggFrames, txAggPackets, rxFrames   *stats.Counter

	channels []chanState
	onIdle   IdleFunc
	onRecv   RecvFunc

	// rxBusyUntil serializes receive processing: frames arriving while the
	// receive engine is busy queue behind it, modeling receiver occupancy.
	rxBusyUntil simnet.Time
}

type chanState struct {
	busy bool
}

// New creates a NIC for node with the given capability profile and
// registers it on the fabric. The profile must validate.
func New(eng *simnet.Engine, fabric *Fabric, node packet.NodeID, c caps.Caps, mem memsim.Model, set *stats.Set) (*NIC, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	if set == nil {
		set = &stats.Set{}
	}
	n := &NIC{
		node:     node,
		caps:     c,
		mem:      mem,
		eng:      eng,
		fabric:   fabric,
		channels: make([]chanState, c.Channels),

		txFrames:       set.Counter("nic.tx.frames"),
		txWireBytes:    set.Counter("nic.tx.wire_bytes"),
		txPayloadBytes: set.Counter("nic.tx.payload_bytes"),
		txAggFrames:    set.Counter("nic.tx.aggregated_frames"),
		txAggPackets:   set.Counter("nic.tx.aggregated_packets"),
		rxFrames:       set.Counter("nic.rx.frames"),
	}
	if err := fabric.attach(n); err != nil {
		return nil, err
	}
	return n, nil
}

// Node returns the owning node.
func (n *NIC) Node() packet.NodeID { return n.node }

// Caps returns the capability profile.
func (n *NIC) Caps() caps.Caps { return n.caps }

// Mem returns the host memory model used for staging-cost accounting.
func (n *NIC) Mem() memsim.Model { return n.mem }

// NumChannels returns the number of virtualized send units.
func (n *NIC) NumChannels() int { return len(n.channels) }

// ChannelIdle reports whether channel ch can accept a frame now.
func (n *NIC) ChannelIdle(ch int) bool { return !n.channels[ch].busy }

// FirstIdle returns the lowest-numbered idle channel.
func (n *NIC) FirstIdle() (int, bool) {
	for i := range n.channels {
		if !n.channels[i].busy {
			return i, true
		}
	}
	return 0, false
}

// SetIdleHandler installs the idle upcall. Passing nil disables it.
func (n *NIC) SetIdleHandler(fn IdleFunc) { n.onIdle = fn }

// SetRecvHandler installs the frame delivery upcall.
func (n *NIC) SetRecvHandler(fn RecvFunc) { n.onRecv = fn }

// ErrChannelBusy is returned when posting to a busy channel; the optimizing
// layer keeps its own backlog and only posts to idle channels, so hitting
// this indicates a scheduling bug rather than a condition to retry.
var ErrChannelBusy = fmt.Errorf("nicsim: channel busy")

// Post submits a frame on channel ch. hostExtra is additional host-side
// time the optimizer spent preparing this frame (staging copies, gather
// descriptors, memory registration) and is charged to the channel occupancy
// so that over-eager aggregation shows up as lost time, exactly as it would
// on hardware.
//
// The timeline charged:
//
//	t0                — channel becomes busy
//	+ hostExtra       — optimizer-added preparation
//	+ PostOverhead    — descriptor/doorbell
//	+ PIO or DMASetup — injection setup
//	+ serialization   — wireBytes / bandwidth (incl. MTU segment headers)
//	=> channel idle, idle upcall fires
//	+ WireLatency     — propagation
//	=> frame arrives at the peer NIC, queues for receive processing
//	+ RecvOverhead    — receiver occupancy, then delivery upcall
func (n *NIC) Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error {
	if ch < 0 || ch >= len(n.channels) {
		return fmt.Errorf("nicsim: node %d has no channel %d", n.node, ch)
	}
	st := &n.channels[ch]
	if st.busy {
		return ErrChannelBusy
	}
	if f.Src != n.node {
		return fmt.Errorf("nicsim: frame src %d posted on node %d", f.Src, n.node)
	}
	if hostExtra < 0 {
		return fmt.Errorf("nicsim: negative hostExtra %v", hostExtra)
	}

	c := n.caps
	payload := f.PayloadSize()
	host := hostExtra + c.PostOverhead
	if payload <= c.PIOMax && f.Kind == packet.FrameData {
		host += simnet.Duration(payload) * c.PIOCostPerByte
	} else {
		host += c.DMASetup
	}
	wireBytes := f.WireSize() + c.PacketHeader
	// Frames beyond the MTU are segmented by the link layer; each extra
	// segment repeats the per-packet wire header.
	if c.MTU > 0 && wireBytes > c.MTU {
		segs := (wireBytes + c.MTU - 1) / c.MTU
		wireBytes += (segs - 1) * c.PacketHeader
	}
	serialize := simnet.BandwidthTime(wireBytes, c.Bandwidth)
	busyDur := host + serialize

	st.busy = true

	n.txFrames.Inc()
	n.txWireBytes.Add(uint64(wireBytes))
	n.txPayloadBytes.Add(uint64(payload))
	if f.Kind == packet.FrameData && len(f.Entries) > 1 {
		n.txAggFrames.Inc()
		n.txAggPackets.Add(uint64(len(f.Entries)))
	}

	n.eng.After(busyDur, "nic.txdone", func() {
		st.busy = false
		if n.onIdle != nil {
			n.onIdle(n, ch)
		}
	})
	n.eng.After(busyDur+c.WireLatency, "nic.arrive", func() {
		n.fabric.arrive(n.node, f)
	})
	return nil
}

// receive runs at the destination NIC when a frame lands; it charges
// receiver occupancy and then delivers.
//
// Eager data frames additionally pay a staging memcpy: their payload lands
// in the library's bounce buffers (the receiver posted nothing) and must
// be copied out. Rendezvous RData and RMA frames DMA straight into posted
// or registered memory and skip the copy — the physical reason rendezvous
// wins for large payloads (exercised by experiment E8).
func (n *NIC) receive(src packet.NodeID, f *packet.Frame) {
	now := n.eng.Now()
	start := now
	if n.rxBusyUntil > start {
		start = n.rxBusyUntil
	}
	occupancy := n.caps.RecvOverhead
	if f.Kind == packet.FrameData {
		occupancy += n.mem.CopyCost(f.PayloadSize())
	}
	done := start.Add(occupancy)
	n.rxBusyUntil = done
	n.rxFrames.Inc()
	n.eng.At(done, "nic.rxdone", func() {
		if n.onRecv != nil {
			n.onRecv(src, f)
		}
	})
}
