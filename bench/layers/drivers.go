// Package layers is the benchmark's outside-in ledger: it times calls into
// the public functions of each layer of the Figure-1 stack (mad, core,
// strategy, packet, drivers, proto, stats, telemetry) with inputs shaped
// like the workload being measured, and it records per-message spans at the
// layer boundaries from a pass-through driver. Nothing here reaches inside
// a layer; instrumenting the program itself is a later change.
package layers

import (
	"errors"
	"sync/atomic"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Sink is the cheapest possible transfer layer: every channel is always
// idle and a posted frame is consumed on the spot, as a wire rail's owner
// does once the bytes are on the socket. With it under an engine, only the
// layers above cost anything. It keeps the engine's receive upcall so the
// ledger can feed frames in from below.
type Sink struct {
	node packet.NodeID
	caps caps.Caps
	Recv drivers.RecvFunc
}

// NewSink returns an always-idle driver for node advertising c.
func NewSink(node packet.NodeID, c caps.Caps) *Sink { return &Sink{node: node, caps: c} }

func (d *Sink) Name() string                       { return "sink:" + d.caps.Name }
func (d *Sink) Node() packet.NodeID                { return d.node }
func (d *Sink) Caps() caps.Caps                    { return d.caps }
func (d *Sink) Mem() memsim.Model                  { return memsim.DefaultModel() }
func (d *Sink) NumChannels() int                   { return d.caps.Channels }
func (d *Sink) ChannelIdle(int) bool               { return true }
func (d *Sink) FirstIdle() (int, bool)             { return 0, true }
func (d *Sink) SetIdleHandler(drivers.IdleFunc)    {}
func (d *Sink) SetRecvHandler(fn drivers.RecvFunc) { d.Recv = fn }
func (d *Sink) Close() error                       { return nil }

func (d *Sink) Post(_ int, f *packet.Frame, _ simnet.Duration) error {
	packet.ReleaseFrame(f)
	return nil
}

// Gated is Sink with a gate on idleness: while shut, every pump finds the
// channels busy and submitted packets pile up in the engine's backlog;
// Drain opens it and plays the idle upcalls a real rail would, so the
// planner runs over a backlog of known depth.
type Gated struct {
	Sink
	open    atomic.Bool
	idle    drivers.IdleFunc
	Frames  int // frames posted
	Entries int // sub-packets those frames carried
}

// NewGated returns a gated driver for node advertising c, gate shut.
func NewGated(node packet.NodeID, c caps.Caps) *Gated {
	return &Gated{Sink: Sink{node: node, caps: c}}
}

func (d *Gated) ChannelIdle(int) bool               { return d.open.Load() }
func (d *Gated) FirstIdle() (int, bool)             { return 0, d.open.Load() }
func (d *Gated) SetIdleHandler(fn drivers.IdleFunc) { d.idle = fn }

func (d *Gated) Post(_ int, f *packet.Frame, _ simnet.Duration) error {
	d.Frames++
	d.Entries += len(f.Entries)
	packet.ReleaseFrame(f)
	return nil
}

// Drain opens the gate and raises idle upcalls, channel after channel,
// until pending reports no work left; then it shuts the gate again.
func (d *Gated) Drain(pending func() int) {
	d.open.Store(true)
	for ch := 0; pending() > 0; ch = (ch + 1) % d.caps.Channels {
		d.idle(ch)
	}
	d.open.Store(false)
}

// Traced wraps one rail and records, for every frame that crosses it, the
// time of the Post that carried each traced packet and the time its frame
// reached the receiving side's upcall. It forwards everything else, the
// optional failure interfaces included, so an engine runs over it
// unchanged.
type Traced struct {
	inner drivers.Driver
	tr    *Tracer

	// Post accounting for the whole life of the wrapper.
	Posts atomic.Uint64 // Post calls
	Busy  atomic.Uint64 // of which refused with ErrChannelBusy
}

// NewTraced wraps d, recording into tr.
func NewTraced(d drivers.Driver, tr *Tracer) *Traced { return &Traced{inner: d, tr: tr} }

func (t *Traced) Name() string                       { return t.inner.Name() }
func (t *Traced) Node() packet.NodeID                { return t.inner.Node() }
func (t *Traced) Caps() caps.Caps                    { return t.inner.Caps() }
func (t *Traced) Mem() memsim.Model                  { return t.inner.Mem() }
func (t *Traced) NumChannels() int                   { return t.inner.NumChannels() }
func (t *Traced) ChannelIdle(ch int) bool            { return t.inner.ChannelIdle(ch) }
func (t *Traced) FirstIdle() (int, bool)             { return t.inner.FirstIdle() }
func (t *Traced) SetIdleHandler(fn drivers.IdleFunc) { t.inner.SetIdleHandler(fn) }
func (t *Traced) Close() error                       { return t.inner.Close() }

// Post stamps the traced packets aboard before handing the frame on: after
// a successful Post the rail owns the frame and may recycle it.
func (t *Traced) Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error {
	t.Posts.Add(1)
	t.tr.stamp(f, t.tr.Now(), stagePost)
	err := t.inner.Post(ch, f, hostExtra)
	if errors.Is(err, drivers.ErrChannelBusy) {
		t.Busy.Add(1)
	}
	return err
}

// SetRecvHandler interposes the arrival stamp between the rail and fn.
func (t *Traced) SetRecvHandler(fn drivers.RecvFunc) {
	if fn == nil {
		t.inner.SetRecvHandler(nil)
		return
	}
	t.inner.SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
		t.tr.stamp(f, t.tr.Now(), stageRecv)
		fn(src, f)
	})
}

func (t *Traced) SetFrameLossHandler(fn drivers.FrameLossHandler) {
	if ln, ok := t.inner.(drivers.FrameLossNotifier); ok {
		ln.SetFrameLossHandler(fn)
	}
}

func (t *Traced) SetPeerDownHandler(fn func(peer packet.NodeID)) {
	if dn, ok := t.inner.(drivers.PeerDownNotifier); ok {
		dn.SetPeerDownHandler(fn)
	}
}

func (t *Traced) PeerDown(peer packet.NodeID) bool {
	if pc, ok := t.inner.(drivers.PeerChecker); ok {
		return pc.PeerDown(peer)
	}
	return false
}

var (
	_ drivers.Driver            = (*Sink)(nil)
	_ drivers.Driver            = (*Gated)(nil)
	_ drivers.Driver            = (*Traced)(nil)
	_ drivers.FrameLossNotifier = (*Traced)(nil)
	_ drivers.PeerDownNotifier  = (*Traced)(nil)
	_ drivers.PeerChecker       = (*Traced)(nil)
)

// since returns the nanoseconds elapsed since epoch.
func since(epoch time.Time) int64 { return int64(time.Since(epoch)) }
