// Package drivers defines the transfer layer of the architecture in the
// paper's Figure 1: a uniform Driver interface that the optimizing layer
// posts frames to, with one implementation per network technology.
//
// Two drivers exist, one per clock:
//
//   - Sim, the simulated NIC in virtual time (Myrinet/MX, Quadrics/Elan,
//     InfiniBand, TCP, WAN — each charged per frame by its record in the
//     capability database, internal/caps); and
//   - Mesh, the real socket driver, which runs the very same engine in
//     wall-clock time and validates the asynchronous upcall contract
//     against a genuine transport: an N-node topology where every node
//     listens, dials its peers, and handles peer failure as a first-class
//     event. It runs over any stream Network (TCP in shipping code); its
//     inline writes need a connection with a raw fd.
//
// The Driver interface is intentionally narrow: the optimizer only ever
// needs to know what a driver can do (Caps), whether a send unit is free,
// and how to post one frame. Everything else — protocols, aggregation,
// scheduling — lives above.
package drivers

import (
	"errors"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// ErrChannelBusy is returned by Post on an occupied channel. The optimizing
// layer maintains its own backlog and treats this as a scheduling bug, not
// a retry condition.
var ErrChannelBusy = errors.New("drivers: channel busy")

// ErrClosed is returned by Post and Dial on a driver that has been
// closed. Teardown races traffic on real transports — a pump can be mid-post
// when cleanup closes the rail — so the layer above drops the frame quietly
// instead of treating it as a bug.
var ErrClosed = errors.New("drivers: closed")

// IdleFunc is invoked when a send channel becomes free. Sim drivers call it
// on the simulation goroutine; Mesh calls it from the destination peer's
// sender goroutine, or from inside Post when Post wrote the frame itself.
type IdleFunc func(ch int)

// RecvFunc delivers a fully received frame.
type RecvFunc func(src packet.NodeID, f *packet.Frame)

// FrameLossHandler receives frames a rail could not deliver: the connection
// carrying them failed with the frames still queued (or mid-write). The
// frames are intact — encoding happens in the rail owner, so an undelivered
// frame is exactly the object that was posted — and the layer above decides
// whether to fail them over onto another rail, hold them for a heal, or
// drop them. The mid-write frame is included even though it *may* have
// reached the peer: a broken TCP stream cannot say, so exactly-once is the
// receiver's job (the reassembler deduplicates by sequence number).
type FrameLossHandler func(peer packet.NodeID, frames []*packet.Frame)

// FrameLossNotifier is implemented by drivers that can hand undeliverable
// frames back instead of dropping them — the hook engine-level failover
// (internal/core) builds on.
type FrameLossNotifier interface {
	SetFrameLossHandler(fn FrameLossHandler)
}

// PeerChecker is implemented by drivers that track per-peer liveness. The
// optimizing layer consults it to route failover traffic around dead
// connections; drivers without the method (simulated fabrics) are treated
// as always-reachable.
type PeerChecker interface {
	PeerDown(peer packet.NodeID) bool
}

// FrameLander is implemented by drivers whose peer lands every frame in a
// buffer of its own (packet.LandingBuf): there is no receive buffer to post,
// so rendezvous payloads go at once, without RTS/CTS. Sim lands frames too
// but models a NIC that needs a posted buffer, so it keeps the handshake.
type FrameLander interface {
	LandsFrames() bool
}

// PeerDownNotifier is implemented by drivers that can report peer failure
// as an event (once per failed peer).
type PeerDownNotifier interface {
	SetPeerDownHandler(fn func(peer packet.NodeID))
}

// Driver is one node's endpoint on one network.
type Driver interface {
	// Name identifies the driver instance for diagnostics.
	Name() string
	// Node returns the local node id.
	Node() packet.NodeID
	// Caps returns the capability record that parameterizes optimization.
	Caps() caps.Caps
	// Mem returns the host memory model for staging-cost estimation.
	Mem() memsim.Model
	// NumChannels returns the number of independent send units.
	NumChannels() int
	// ChannelIdle reports whether channel ch can accept a frame.
	ChannelIdle(ch int) bool
	// FirstIdle returns the lowest idle channel, if any.
	FirstIdle() (int, bool)
	// Post submits one frame on an idle channel. hostExtra charges
	// optimizer-side preparation time (ignored by wall-clock drivers,
	// where preparation takes the time it takes).
	Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error
	// SetIdleHandler installs the idle upcall (single handler).
	SetIdleHandler(fn IdleFunc)
	// SetRecvHandler installs the delivery upcall (single handler).
	SetRecvHandler(fn RecvFunc)
	// Close releases resources. Sim drivers are trivial; Mesh closes its
	// listener and sockets and waits for its goroutines.
	Close() error
}
