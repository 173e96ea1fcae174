package drivers

import (
	"fmt"
	"sort"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
)

// Fabric is one simulated interconnect: the Sim drivers of a single
// technology, one per participating node, with any-to-any reachability
// (high-speed cluster interconnects are full-bisection at the scales the
// paper considers, so contention is modeled at the NICs, not the switch).
//
// A node on several fabrics (multi-rail, possibly of different
// technologies) owns one Sim on each; internal/core balances between them.
type Fabric struct {
	name string
	nics map[packet.NodeID]*Sim
}

// NewFabric creates an empty fabric.
func NewFabric(name string) *Fabric {
	return &Fabric{name: name, nics: make(map[packet.NodeID]*Sim)}
}

// Sim is the discrete-event model of one node's NIC on one fabric: several
// virtualized send channels (the "network multiplexing units"), a link
// with per-request overhead, serialization and propagation delay, and a
// receive path with per-frame processing cost, all in virtual time.
//
// The central contract with the optimizing layer is the idle upcall: a
// channel that finishes serializing a frame notifies its owner, and that —
// not application submission — is what triggers optimization (paper §3).
type Sim struct {
	node   packet.NodeID
	caps   caps.Caps
	mem    memsim.Model
	eng    *simnet.Engine
	fabric *Fabric

	// Counter handles, resolved once: a simulated frame must not pay six
	// map lookups under the Set mutex.
	txFrames, txWireBytes, txPayloadBytes *stats.Counter
	txAggFrames, txAggPackets, rxFrames   *stats.Counter

	busy   []bool // per send channel
	onIdle IdleFunc
	onRecv RecvFunc

	// rxBusyUntil serializes receive processing: frames arriving while the
	// receive engine is busy queue behind it, modeling receiver occupancy.
	rxBusyUntil simnet.Time

	vec  [][]byte // land's encoder scratch, reused across posts
	meta []byte
}

var _ Driver = (*Sim)(nil)

// NewSim creates node's NIC with capability profile c and attaches it to
// fabric. The profile and memory model must validate; a nil set gets a
// private one.
func NewSim(eng *simnet.Engine, fabric *Fabric, node packet.NodeID, c caps.Caps, mem memsim.Model, set *stats.Set) (*Sim, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	if _, dup := fabric.nics[node]; dup {
		return nil, fmt.Errorf("drivers: node %d already attached to fabric %s", node, fabric.name)
	}
	if set == nil {
		set = &stats.Set{}
	}
	s := &Sim{
		node:   node,
		caps:   c,
		mem:    mem,
		eng:    eng,
		fabric: fabric,
		busy:   make([]bool, c.Channels),

		txFrames:       set.Counter("nic.tx.frames"),
		txWireBytes:    set.Counter("nic.tx.wire_bytes"),
		txPayloadBytes: set.Counter("nic.tx.payload_bytes"),
		txAggFrames:    set.Counter("nic.tx.aggregated_frames"),
		txAggPackets:   set.Counter("nic.tx.aggregated_packets"),
		rxFrames:       set.Counter("nic.rx.frames"),
	}
	fabric.nics[node] = s
	return s, nil
}

// Name returns "<profile>@n<node>".
func (s *Sim) Name() string { return fmt.Sprintf("%s@n%d", s.caps.Name, s.node) }

// Node returns the local node id.
func (s *Sim) Node() packet.NodeID { return s.node }

// Caps returns the capability profile.
func (s *Sim) Caps() caps.Caps { return s.caps }

// Mem returns the host memory model used for staging-cost accounting.
func (s *Sim) Mem() memsim.Model { return s.mem }

// NumChannels returns the number of virtualized send units.
func (s *Sim) NumChannels() int { return len(s.busy) }

// ChannelIdle reports whether channel ch can accept a frame now.
func (s *Sim) ChannelIdle(ch int) bool { return !s.busy[ch] }

// FirstIdle returns the lowest-numbered idle channel.
func (s *Sim) FirstIdle() (int, bool) {
	for i, b := range s.busy {
		if !b {
			return i, true
		}
	}
	return 0, false
}

// SetIdleHandler installs the idle upcall. Passing nil disables it.
func (s *Sim) SetIdleHandler(fn IdleFunc) { s.onIdle = fn }

// SetRecvHandler installs the frame delivery upcall.
func (s *Sim) SetRecvHandler(fn RecvFunc) { s.onRecv = fn }

// Post submits a frame on channel ch. hostExtra is additional host-side
// time the optimizer spent preparing this frame (staging copies, gather
// descriptors, memory registration) and is charged to the channel occupancy
// so that over-eager aggregation shows up as lost time, exactly as it would
// on hardware.
//
// The frame crosses as bytes: Post lands it at once and releases f, as a
// rail owner does after its write.
//
// The timeline charged:
//
//	t0                — channel becomes busy
//	+ hostExtra       — optimizer-added preparation
//	+ ChannelTime     — post, PIO or DMA setup, serialization
//	=> channel idle, idle upcall fires
//	+ WireLatency     — propagation
//	=> frame arrives at the peer NIC, queues for receive processing
//	+ RecvOverhead    — receiver occupancy, then delivery upcall
func (s *Sim) Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error {
	if ch < 0 || ch >= len(s.busy) {
		return fmt.Errorf("drivers: node %d has no channel %d", s.node, ch)
	}
	if s.busy[ch] {
		return ErrChannelBusy
	}
	if f.Src != s.node {
		return fmt.Errorf("drivers: frame src %d posted on node %d", f.Src, s.node)
	}
	if hostExtra < 0 {
		return fmt.Errorf("drivers: negative hostExtra %v", hostExtra)
	}
	dst, ok := s.fabric.nics[f.Dst]
	if !ok {
		return fmt.Errorf("drivers: frame for node %d, not attached to fabric %s", f.Dst, s.fabric.name)
	}

	landed, err := s.land(f)
	if err != nil {
		return err
	}
	payload := f.PayloadSize()
	busy, wireBytes := s.caps.ChannelTime(f.WireSize(), payload, f.Kind == packet.FrameData)
	busy += hostExtra
	s.busy[ch] = true

	s.txFrames.Inc()
	s.txWireBytes.Add(uint64(wireBytes))
	s.txPayloadBytes.Add(uint64(payload))
	if f.Kind == packet.FrameData && len(f.Entries) > 1 {
		s.txAggFrames.Inc()
		s.txAggPackets.Add(uint64(len(f.Entries)))
	}
	packet.ReleaseFrame(f)

	s.eng.After(busy, "nic.txdone", func() {
		s.busy[ch] = false
		if s.onIdle != nil {
			s.onIdle(ch)
		}
	})
	s.eng.After(busy+s.caps.WireLatency, "nic.arrive", func() { dst.receive(s.node, landed) })
	return nil
}

// land is the simulated wire: f's encoding, in the buffer LandingBuf picks,
// through landFrame — a frame the receiver owns. The two stamps the encoding
// drops (Posted, Enqueued) are copied across for the xmit and e2e spans.
func (s *Sim) land(f *packet.Frame) (*packet.Frame, error) {
	vec, meta := f.EncodeVec(s.vec[:0], s.meta[:0])
	buf := packet.LandingBuf(f.WireSize(), vec[0])
	off := 0
	for _, seg := range vec {
		off += copy(buf.B[off:], seg)
	}
	clear(vec) // drop the payload references until the next post
	s.vec, s.meta = vec[:0], meta[:0]
	landed, err := landFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("drivers: %v does not survive its encoding: %w", f, err)
	}
	landed.Posted = f.Posted
	for i := range landed.Entries {
		landed.Entries[i].Enqueued = f.Entries[i].Enqueued
	}
	return landed, nil
}

// receive runs at the destination NIC when a frame lands; it charges
// receiver occupancy and then delivers.
//
// Eager data frames additionally pay a staging memcpy: their payload lands
// in the library's bounce buffers (the receiver posted nothing) and must
// be copied out. Rendezvous RData and RMA frames DMA straight into posted
// or registered memory and skip the copy — the physical reason rendezvous
// wins for large payloads (exercised by experiment E8).
func (s *Sim) receive(src packet.NodeID, f *packet.Frame) {
	start := s.eng.Now()
	if s.rxBusyUntil > start {
		start = s.rxBusyUntil
	}
	occupancy := s.caps.RecvOverhead
	if f.Kind == packet.FrameData {
		occupancy += s.mem.CopyCost(f.PayloadSize())
	}
	done := start.Add(occupancy)
	s.rxBusyUntil = done
	s.rxFrames.Inc()
	s.eng.At(done, "nic.rxdone", func() {
		if s.onRecv != nil {
			s.onRecv(src, f)
		} else {
			packet.ReleaseFrame(f)
		}
	})
}

// Close is a no-op for simulated hardware.
func (s *Sim) Close() error { return nil }

// Cluster bundles the common experiment topology: one fabric per named
// technology, n nodes, one Sim driver per (node, technology).
type Cluster struct {
	Eng     *simnet.Engine
	Fabrics map[string]*Fabric
	// Drivers[node][tech] is the driver for that node on that fabric.
	Drivers []map[string]*Sim
	Stats   *stats.Set
}

// NewCluster builds an n-node cluster over the given capability profiles.
// All nodes share one stats set (the experiments aggregate fleet-wide).
func NewCluster(n int, profiles ...caps.Caps) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("drivers: cluster needs at least 2 nodes, got %d", n)
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("drivers: cluster needs at least one profile")
	}
	cl := &Cluster{
		Eng:     simnet.NewEngine(),
		Fabrics: make(map[string]*Fabric),
		Drivers: make([]map[string]*Sim, n),
		Stats:   &stats.Set{},
	}
	mem := memsim.DefaultModel()
	for _, p := range profiles {
		if _, dup := cl.Fabrics[p.Name]; dup {
			return nil, fmt.Errorf("drivers: duplicate profile %q in cluster", p.Name)
		}
		cl.Fabrics[p.Name] = NewFabric(p.Name)
	}
	for node := 0; node < n; node++ {
		cl.Drivers[node] = make(map[string]*Sim, len(profiles))
		for _, p := range profiles {
			s, err := NewSim(cl.Eng, cl.Fabrics[p.Name], packet.NodeID(node), p, mem, cl.Stats)
			if err != nil {
				return nil, err
			}
			cl.Drivers[node][p.Name] = s
		}
	}
	return cl, nil
}

// Driver returns the driver of node on the named technology.
func (c *Cluster) Driver(node packet.NodeID, tech string) *Sim {
	return c.Drivers[node][tech]
}

// NodeDrivers returns all drivers of a node (one per technology), sorted by
// technology name so callers iterate deterministically.
func (c *Cluster) NodeDrivers(node packet.NodeID) []*Sim {
	names := make([]string, 0, len(c.Drivers[node]))
	for name := range c.Drivers[node] {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Sim, len(names))
	for i, name := range names {
		out[i] = c.Drivers[node][name]
	}
	return out
}
