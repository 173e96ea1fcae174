package layers

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/telemetry"
)

// Metric is one named measurement.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Shape describes the messages of the workload the ledger stands in for, so
// that every layer is timed on inputs like the ones it sees end to end.
type Shape struct {
	// Header is the length of the receive_EXPRESS fragment a message starts
	// with when it goes through mad; 0 for a workload that submits one raw
	// packet per message (the mad rows then split off 16 bytes, to have
	// something to pack).
	Header int
	// Body is the payload length of the (remaining) fragment.
	Body int
	// Class is the traffic class of the body packet.
	Class packet.ClassID
	// PktsPerFrame is the mean number of packets per data frame the
	// workload was observed to reach at saturation (at least 1).
	PktsPerFrame int
}

// rail is the capability record every ledger rail advertises: the one the
// end-to-end workloads run over.
var rail = caps.TCP

// ledgerFlows is how many flows the synthetic backlogs rotate over.
const ledgerFlows = 8

// tmpl is one packet of a message.
type tmpl struct {
	size  int
	class packet.ClassID
	recv  packet.RecvMode
	last  bool
}

// packets returns the packets one message turns into.
func (s Shape) packets() []tmpl {
	body := tmpl{size: s.Body, class: s.Class, recv: packet.RecvCheaper, last: true}
	if s.Header == 0 {
		return []tmpl{body}
	}
	return []tmpl{{size: s.Header, class: packet.ClassControl, recv: packet.RecvExpress}, body}
}

// rdv reports whether the body travels by rendezvous on the ledger rail.
func (s Shape) rdv() bool { return s.Body > rail.RndvThreshold }

// frameEntries is how many packets a data frame of this shape carries: whole
// messages, about PktsPerFrame packets.
func (s Shape) frameEntries() int {
	per := len(s.packets())
	return (max(s.PktsPerFrame, 1) + per - 1) / per * per
}

// median returns the middle of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rounds calls round until budget is spent (at least three times) and returns
// the median nanoseconds per operation. round reports how many operations it
// timed and how long they took; whatever it does outside its own timer
// (building an engine, preparing frames) is free.
func rounds(budget time.Duration, round func() (ops int, elapsed time.Duration)) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		ops, d := round()
		per = append(per, float64(d)/float64(ops))
	}
	return median(per)
}

// timed runs op n times and reports n and the time taken.
func timed(n int, op func()) (int, time.Duration) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return n, time.Since(t0)
}

// allocsPer returns heap allocations per call of op over n calls, after one
// warm-up call.
func allocsPer(n int, op func()) float64 {
	op()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// sinkEngine builds an engine for node over d with the aggregate bundle.
func sinkEngine(node packet.NodeID, d drivers.Driver, deliver proto.DeliverFunc) (*core.Engine, error) {
	b, err := strategy.New("aggregate")
	if err != nil {
		return nil, err
	}
	return core.New(node, core.Options{
		Bundle:  b,
		Runtime: simnet.NewRealRuntime(),
		Rails:   []drivers.Driver{d},
		Deliver: deliver,
	})
}

// Ledger times every layer on s, spending about per on each row.
func Ledger(s Shape, per time.Duration) ([]Metric, error) {
	var out []Metric
	add := func(name, unit string, v float64) { out = append(out, Metric{name, unit, v}) }

	// packet: the codec first, because later rows subtract it.
	c, err := codec(s, per)
	if err != nil {
		return nil, err
	}
	add("packet.encode_ns_per_frame", "ns", c.encode)
	add("packet.decode_ns_per_frame", "ns", c.decode)
	add("packet.codec_ns_per_KiB", "ns", (c.encode+c.decode)/(float64(c.wire)/1024))
	add("packet.wire_bytes_per_payload_byte", "x", float64(c.wire)/float64(c.payload))

	// mad
	ns, allocs, err := madPack(s, per)
	if err != nil {
		return nil, err
	}
	add("mad.pack_ns_per_msg", "ns", ns)
	add("mad.pack_allocs_per_msg", "count", allocs)
	if ns, err = madIngest(s, per); err != nil {
		return nil, err
	}
	add("mad.ingest_ns_per_msg", "ns", ns)

	// core
	if ns, allocs, err = coreSubmit(s, per); err != nil {
		return nil, err
	}
	add("core.submit_ns_per_pkt", "ns", ns)
	add("core.submit_allocs_per_pkt", "count", allocs)
	bl, err := coreBacklog(s, per)
	if err != nil {
		return nil, err
	}
	add("core.backlog_ns_per_pkt", "ns", bl.nsPerPkt)
	add("core.backlog_depth", "count", float64(bl.depth))
	add("core.backlog_pkts_per_frame", "count", bl.pktsPerFrame)

	// proto, then the core receive path that contains it
	dispatch, err := recvPath(s, per, false)
	if err != nil {
		return nil, err
	}
	add("proto.dispatch_ns_per_frame", "ns", dispatch)
	add("proto.reasm_ns_per_pkt", "ns", reasm(s, per))
	recv, err := recvPath(s, per, true)
	if err != nil {
		return nil, err
	}
	add("core.recv_ns_per_frame", "ns", recv)
	add("core.recv_self_ns_per_frame", "ns", recv-dispatch)

	// strategy
	plan, pkts, err := build(s, per)
	if err != nil {
		return nil, err
	}
	add("strategy.build_ns_per_plan", "ns", plan)
	add("strategy.build_ns_per_pkt", "ns", plan/float64(pkts))

	// drivers
	w, err := wire(s, per)
	if err != nil {
		return nil, err
	}
	add("drivers.wire_ns_per_frame", "ns", w.oneWay)
	add("drivers.wire_self_ns_per_frame", "ns", w.oneWay-c.encode-c.decode)
	add("drivers.frame_turn_ns", "ns", w.turn)
	add("drivers.wire_MB_per_s", "MB/s", w.mbps)

	// stats
	sp := stats.NewSpans(5, int(packet.NumClasses), 2)
	i := 0
	add("stats.span_observe_ns", "ns", rounds(per, func() (int, time.Duration) {
		return timed(4096, func() {
			sp.Observe(1, int(packet.ClassSmall), i&1, float64(100+i&1023))
			i++
		})
	}))
	return out, nil
}

// frame builds the data frame (or, for a rendezvous shape, the RData frame)
// one transaction of shape s puts on the wire, from src to dst, its packets
// numbered from seq on in flow. The frame comes from the pool.
func (s Shape) frame(src, dst packet.NodeID, flow packet.FlowID, seq int, payload []byte) *packet.Frame {
	f := packet.AcquireFrame()
	f.Src, f.Dst = src, dst
	if s.rdv() {
		f.Kind = packet.FrameRData
		f.Ctrl = packet.Ctrl{Token: uint64(seq + 1), Flow: flow, Msg: 1, Seq: seq, Size: s.Body, Last: true}
		f.Bulk = payload[:s.Body]
		return f
	}
	f.Kind = packet.FrameData
	ts := s.packets()
	for i := 0; i < s.frameEntries(); i++ {
		t := ts[i%len(ts)]
		f.Entries = append(f.Entries, packet.Entry{
			Flow: flow, Msg: packet.MsgID(1 + (seq+i)/len(ts)), Seq: seq + i, Last: t.last,
			Class: t.class, Recv: t.recv, Payload: payload[:t.size],
		})
	}
	return f
}

type codecCost struct {
	encode, decode float64
	wire, payload  int
}

func codec(s Shape, per time.Duration) (codecCost, error) {
	payload := make([]byte, max(s.Body, s.Header))
	f := s.frame(0, 1, 7, 0, payload)
	defer packet.ReleaseFrame(f)
	c := codecCost{wire: f.WireSize(), payload: f.PayloadSize()}
	var vec [][]byte
	var meta []byte
	c.encode = rounds(per, func() (int, time.Duration) {
		return timed(256, func() {
			meta = append(meta[:0], 0, 0, 0, 0)
			vec, meta = f.EncodeVec(vec[:0], meta)
		})
	})
	flat := f.Encode(nil)
	var into packet.Frame
	var derr error
	c.decode = rounds(per, func() (int, time.Duration) {
		return timed(256, func() {
			if _, err := packet.DecodeInto(&into, flat); err != nil {
				derr = err
			}
		})
	})
	if derr != nil {
		return c, fmt.Errorf("layers: decode of an encoded frame: %w", derr)
	}
	return c, nil
}

// madSplit is where the mad rows split a raw workload's single packet.
const madSplit = 16

func (s Shape) madParts(payload []byte) (hdr, body []byte) {
	if s.Header > 0 {
		return payload[:s.Header], payload[:s.Body]
	}
	return payload[:madSplit], payload[:s.Body-madSplit]
}

// madPack times BeginPacking/Pack/Pack/EndPacking onto an engine whose rail
// swallows everything. A fresh engine per round keeps a rendezvous shape's
// never-granted transfers from piling up.
func madPack(s Shape, per time.Duration) (ns, allocs float64, err error) {
	payload := make([]byte, max(s.Body, s.Header, madSplit))
	hdr, body := s.madParts(payload)
	newConn := func() (*mad.Connection, func(), error) {
		sess, err := mad.Bind(0, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return sinkEngine(0, NewSink(0, rail), deliver)
		})
		if err != nil {
			return nil, nil, err
		}
		return sess.Channel("ledger").Connect(1), sess.Engine().Close, nil
	}
	pack := func(c *mad.Connection) func() {
		return func() {
			m := c.BeginPacking()
			m.Pack(hdr, mad.SendCheaper, mad.RecvExpress)
			m.Pack(body, mad.SendCheaper, mad.RecvCheaper)
			m.EndPacking()
		}
	}
	ns = rounds(per, func() (int, time.Duration) {
		c, closeEngine, e := newConn()
		if e != nil {
			err = e
			return 1, 0
		}
		defer closeEngine()
		return timed(1024, pack(c))
	})
	if err != nil {
		return 0, 0, err
	}
	c, closeEngine, err := newConn()
	if err != nil {
		return 0, 0, err
	}
	defer closeEngine()
	return ns, allocsPer(512, pack(c)), nil
}

// madIngest times Session.Dispatch assembling a message out of its two
// fragments and handing it to OnMessage.
func madIngest(s Shape, per time.Duration) (float64, error) {
	payload := make([]byte, max(s.Body, s.Header, madSplit))
	hdr, body := s.madParts(payload)
	bind := func(node packet.NodeID) (*mad.Session, error) {
		return mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return sinkEngine(node, NewSink(node, rail), deliver)
		})
	}
	rx, err := bind(0)
	if err != nil {
		return 0, err
	}
	defer rx.Engine().Close()
	tx, err := bind(1)
	if err != nil {
		return 0, err
	}
	defer tx.Engine().Close()
	flow := tx.Channel("ledger").Connect(0).Flow()
	got := 0
	rx.Channel("ledger").OnMessage(func(packet.NodeID, *mad.Incoming) { got++ })
	msg, seq := packet.MsgID(0), 0
	ns := rounds(per, func() (int, time.Duration) {
		return timed(1024, func() {
			msg++
			rx.Dispatch(proto.Deliverable{Src: 1, Pkt: packet.Packet{
				Flow: flow, Msg: msg, Seq: seq, Src: 1, Dst: 0, Recv: packet.RecvExpress, Payload: hdr}})
			rx.Dispatch(proto.Deliverable{Src: 1, Pkt: packet.Packet{
				Flow: flow, Msg: msg, Seq: seq + 1, Src: 1, Dst: 0, Last: true, Payload: body}})
			seq += 2
		})
	})
	if got != int(msg) {
		return 0, fmt.Errorf("layers: mad assembled %d of %d messages", got, msg)
	}
	return ns, nil
}

// submitPackets returns n packets of shape s toward node 1, rotating over
// the ledger's flows, ready to be submitted (and resubmitted: the send side
// never looks at Seq).
func (s Shape) submitPackets(n int) []*packet.Packet {
	payload := make([]byte, max(s.Body, s.Header))
	ts := s.packets()
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		t := ts[i%len(ts)]
		pkts[i] = &packet.Packet{
			Flow: packet.FlowID(1 + (i/len(ts))%ledgerFlows), Msg: 1, Seq: i, Src: 0, Dst: 1,
			Class: t.class, Recv: t.recv, Last: t.last, Payload: payload[:t.size],
		}
	}
	return pkts
}

// coreSubmit times Submit on an always-idle rail: admit, inbox, drain, plan
// and post for one packet, nothing to aggregate with.
func coreSubmit(s Shape, per time.Duration) (ns, allocs float64, err error) {
	pkts := s.submitPackets(len(s.packets()))
	submit := func(e *core.Engine) func() {
		i := 0
		return func() {
			if e2 := e.Submit(pkts[i%len(pkts)]); e2 != nil {
				err = e2
			}
			i++
		}
	}
	newEngine := func() (*core.Engine, error) {
		return sinkEngine(0, NewSink(0, rail), func(proto.Deliverable) {})
	}
	ns = rounds(per, func() (int, time.Duration) {
		e, e2 := newEngine()
		if e2 != nil {
			err = e2
			return 1, 0
		}
		defer e.Close()
		return timed(2048, submit(e))
	})
	if err != nil {
		return 0, 0, err
	}
	e, err := newEngine()
	if err != nil {
		return 0, 0, err
	}
	defer e.Close()
	allocs = allocsPer(1024, submit(e))
	return ns, allocs, err
}

type backlogCost struct {
	nsPerPkt     float64
	depth        int
	pktsPerFrame float64
}

// coreBacklog times the engine over a real backlog: the rail is held busy
// while four frames' worth of packets are submitted, then it opens and every
// idle upcall makes the planner choose the next frame out of what is left.
// The time covers both halves — queueing into the backlog and planning out
// of it — per packet.
func coreBacklog(s Shape, per time.Duration) (backlogCost, error) {
	depth := max(8, 4*s.frameEntries())
	pkts := s.submitPackets(depth)
	g := NewGated(0, rail)
	e, err := sinkEngine(0, g, func(proto.Deliverable) {})
	if err != nil {
		return backlogCost{}, err
	}
	defer e.Close()
	pending := func() int {
		ctrl, bulk := e.QueuedFrames()
		return e.BacklogLen() + ctrl + bulk
	}
	var res backlogCost
	var serr error
	res.nsPerPkt = rounds(per, func() (int, time.Duration) {
		t0 := time.Now()
		for _, p := range pkts {
			if err := e.Submit(p); err != nil {
				serr = err
			}
		}
		res.depth = pending()
		g.Drain(pending)
		return depth, time.Since(t0)
	})
	if serr != nil {
		return res, serr
	}
	if g.Frames > 0 {
		res.pktsPerFrame = float64(g.Entries) / float64(g.Frames)
	}
	return res, nil
}

// recvPath times the receive side on frames prepared exactly as a mesh
// reader prepares them — pooled buffer, pooled frame, DecodeInto, backing
// attached — handing each to the engine's receive upcall (viaEngine) or
// straight to a proto.Dispatcher. A rendezvous shape alternates RTS and
// RData, as its traffic does. Preparation is outside the timer.
func recvPath(s Shape, per time.Duration, viaEngine bool) (float64, error) {
	const batch = 64
	payload := make([]byte, max(s.Body, s.Header))
	var err error
	ns := rounds(per, func() (int, time.Duration) {
		// A fresh receiver per round, so sequence numbers restart at zero.
		var handle func(src packet.NodeID, f *packet.Frame)
		if viaEngine {
			sink := NewSink(0, rail)
			e, e2 := sinkEngine(0, sink, func(proto.Deliverable) {})
			if e2 != nil {
				err = e2
				return 1, 0
			}
			defer e.Close()
			handle = sink.Recv // the engine releases the frame itself
		} else {
			re := proto.NewReassembler(0, func(proto.Deliverable) {})
			drop := func(f *packet.Frame) { packet.ReleaseFrame(f) }
			d := proto.NewDispatcher(0, re,
				proto.NewRdvSender(0, func(uint64, *packet.Packet) {}),
				proto.NewRdvReceiver(0, re, drop, 0), proto.NewRMA(0, drop))
			handle = d.HandleFrame
		}
		frames := make([]*packet.Frame, 0, 2*batch)
		seq := 0
		for i := 0; i < batch; i++ {
			src := s.frame(1, 0, 7, seq, payload)
			if s.rdv() {
				rts := packet.AcquireFrame()
				rts.Kind, rts.Src, rts.Dst, rts.Ctrl = packet.FrameRTS, 1, 0, src.Ctrl
				frames = append(frames, asReceived(rts))
				seq++
			} else {
				seq += len(src.Entries)
			}
			frames = append(frames, asReceived(src))
		}
		t0 := time.Now()
		for _, f := range frames {
			handle(1, f)
		}
		d := time.Since(t0)
		if !viaEngine {
			for _, f := range frames {
				packet.ReleaseFrame(f)
			}
		}
		return len(frames), d
	})
	return ns, err
}

// asReceived turns a frame built on the send side into what a mesh reader
// hands up: encoded, copied into a pooled buffer, decoded into a pooled
// frame with that buffer attached. The send-side frame is released.
func asReceived(src *packet.Frame) *packet.Frame {
	buf := packet.GetBuf(src.WireSize())
	src.Encode(buf.B[:0])
	packet.ReleaseFrame(src)
	f := packet.AcquireFrame()
	if _, err := packet.DecodeInto(f, buf.B); err != nil {
		panic("layers: decode of an encoded frame: " + err.Error())
	}
	f.SetBacking(buf)
	return f
}

// reasm times Reassembler.Ingest on in-order packets.
func reasm(s Shape, per time.Duration) float64 {
	payload := make([]byte, max(s.Body, s.Header))
	ts := s.packets()
	re := proto.NewReassembler(0, func(proto.Deliverable) {})
	seq := 0
	return rounds(per, func() (int, time.Duration) {
		return timed(4096, func() {
			t := ts[seq%len(ts)]
			p := packet.Packet{Flow: 7, Msg: 1, Seq: seq, Src: 1, Dst: 0,
				Class: t.class, Recv: t.recv, Last: t.last, Payload: payload[:t.size]}
			re.Ingest(1, &p)
			seq++
		})
	})
}

// build times the aggregate bundle's plan builder choosing one frame out of
// a backlog of one frame's worth of packets, and reports the plan's size.
func build(s Shape, per time.Duration) (ns float64, pkts int, err error) {
	b, err := strategy.New("aggregate")
	if err != nil {
		return 0, 0, err
	}
	backlog := s.submitPackets(s.frameEntries())
	for i, p := range backlog {
		p.SubmitSeq = uint64(i + 1)
	}
	ctx := &strategy.Context{Caps: rail, Mem: memsim.DefaultModel(), Backlog: backlog}
	var plan *strategy.Plan
	ns = rounds(per, func() (int, time.Duration) {
		return timed(1024, func() { plan = b.Builder.Build(ctx) })
	})
	if plan == nil || len(plan.Packets) == 0 {
		return 0, 0, fmt.Errorf("layers: builder %s planned nothing over %d packets", b.Builder.Name(), len(backlog))
	}
	return ns, len(plan.Packets), nil
}

type wireCost struct {
	oneWay, turn, mbps float64
}

// wire times the transfer layer alone: two mesh endpoints over loopback TCP,
// no engine. One frame at a time gives Post → peer's receive upcall and
// Post → idle upcall; then both channels are kept full for the byte rate.
func wire(s Shape, per time.Duration) (wireCost, error) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, rail)
	if err != nil {
		return wireCost{}, err
	}
	defer cleanup()
	payload := make([]byte, max(s.Body, s.Header))
	next := func() *packet.Frame { return s.frame(0, 1, 7, 0, payload) }

	var recvAt, idleAt atomic.Int64
	var rxBytes atomic.Int64
	epoch := time.Now()
	recvd := make(chan struct{}, 1)
	idle := make(chan struct{}, 1)
	nodes[1].SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		recvAt.Store(since(epoch))
		rxBytes.Add(int64(f.WireSize()))
		packet.ReleaseFrame(f)
		select {
		case recvd <- struct{}{}:
		default:
		}
	})
	nodes[0].SetIdleHandler(func(int) {
		idleAt.Store(since(epoch))
		select {
		case idle <- struct{}{}:
		default:
		}
	})

	var res wireCost
	var perr error
	var turns []float64
	res.oneWay = rounds(per, func() (int, time.Duration) {
		const n = 64
		var oneWay, turn int64
		for i := 0; i < n; i++ {
			f := next()
			t0 := since(epoch)
			if err := nodes[0].Post(0, f, 0); err != nil {
				perr = err
				return 1, 0
			}
			<-recvd
			<-idle
			oneWay += recvAt.Load() - t0
			turn += idleAt.Load() - t0
		}
		turns = append(turns, float64(turn)/n)
		return n, time.Duration(oneWay)
	})
	if perr != nil {
		return res, perr
	}
	res.turn = median(turns)

	// Byte rate: every idle upcall posts the next frame on the channel that
	// just went idle, so the rail owner never waits for the poster.
	var stop atomic.Bool
	nodes[0].SetIdleHandler(func(ch int) {
		if stop.Load() {
			select {
			case idle <- struct{}{}:
			default:
			}
			return
		}
		if err := nodes[0].Post(ch, next(), 0); err != nil {
			stop.Store(true)
		}
	})
	rxBytes.Store(0)
	t0 := time.Now()
	for ch := 0; ch < nodes[0].NumChannels(); ch++ {
		if err := nodes[0].Post(ch, next(), 0); err != nil {
			return res, err
		}
	}
	time.Sleep(per)
	res.mbps = float64(rxBytes.Load()) / time.Since(t0).Seconds() / 1e6
	stop.Store(true)
	// Let the frames in flight land before the mesh closes under them.
	for ch := 0; ch < nodes[0].NumChannels(); ch++ {
		for !nodes[0].ChannelIdle(ch) {
			<-idle
		}
	}
	return res, nil
}

// MetricsInto times one Engine.MetricsInto snapshot.
func MetricsInto(e *core.Engine, per time.Duration) float64 {
	var m core.Metrics
	return rounds(per, func() (int, time.Duration) {
		return timed(256, func() { e.MetricsInto(&m) })
	})
}

// FleetSnapshot times one telemetry fleet snapshot over srcs, in
// microseconds.
func FleetSnapshot(srcs []telemetry.Source, per time.Duration) float64 {
	reg := telemetry.NewRegistry()
	for _, s := range srcs {
		reg.Register(s)
	}
	return rounds(per, func() (int, time.Duration) {
		return timed(4, func() { reg.Fleet() })
	}) / 1e3
}
