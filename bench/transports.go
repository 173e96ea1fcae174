package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"newmad/bench/layers"
	"newmad/bench/ref"
	"newmad/internal/caps"
	"newmad/internal/cluster"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/telemetry"
)

// probeFlow marks the set-up probes of a raw stack; probeChannel carries
// them through mad. Neither collides with a workload flow.
const (
	probeFlow    = packet.FlowID(1 << 20)
	probeChannel = "probe"
)

// engineTx drives the full Figure-1 stack — mad → core/strategy → drivers
// (real TCP over the host's loopback interface) → packet → proto → deliver —
// through public functions only.
type engineTx struct {
	w       *workload
	s       atomic.Pointer[side] // attached before any workload traffic
	engines []*core.Engine
	stats   []*stats.Set
	conns   []*mad.Connection // per flow, mad workloads
	traced  []*layers.Traced  // per node, traced stacks only
	closeFn func()

	// Set-up probes: ready closes when the last ordered pair has delivered.
	probes atomic.Int64
	pairs  int64
	ready  chan struct{}
}

// newEngineTx boots the stack for w under the named strategy bundle. With tr
// nil it is cluster.New, what a user of the repository boots; with a tracer
// the same stack is assembled by hand so that every rail sits behind a
// recording pass-through driver.
func newEngineTx(w *workload, bundle string, tr *layers.Tracer) (*engineTx, error) {
	t := &engineTx{w: w, pairs: int64(w.nodes * (w.nodes - 1)), ready: make(chan struct{})}
	var sessions []*mad.Session
	if tr == nil {
		o := cluster.Options{Nodes: w.nodes, Bundle: bundle, Shards: w.shards, Raw: !w.mad}
		if !w.mad {
			o.OnDeliver = t.onDeliver
		}
		c, err := cluster.New(o)
		if err != nil {
			return nil, err
		}
		t.closeFn = c.Close
		for _, n := range c.Nodes {
			t.engines = append(t.engines, n.Engine)
			t.stats = append(t.stats, n.Stats)
			sessions = append(sessions, n.Session)
		}
	} else {
		meshes, cleanup, err := drivers.NewMeshCluster(w.nodes, caps.TCP)
		if err != nil {
			return nil, err
		}
		t.closeFn = func() {
			for _, e := range t.engines {
				e.Close()
			}
			cleanup()
		}
		rt := simnet.NewRealRuntime()
		for i, m := range meshes {
			node := packet.NodeID(i)
			b, err := strategy.New(bundle)
			if err != nil {
				t.close()
				return nil, err
			}
			wrapped := layers.NewTraced(m, tr)
			set := &stats.Set{}
			sess, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
				if !w.mad {
					deliver = func(d proto.Deliverable) { t.onDeliver(node, d) }
				}
				return core.New(node, core.Options{
					Bundle: b, Runtime: rt, Rails: []drivers.Driver{wrapped},
					Deliver: deliver, Shards: w.shards, Stats: set,
				})
			})
			if err != nil {
				t.close()
				return nil, err
			}
			t.engines = append(t.engines, sess.Engine())
			t.stats = append(t.stats, set)
			t.traced = append(t.traced, wrapped)
			sessions = append(sessions, sess)
		}
	}
	if w.mad {
		// Channels are created in the same order on every node, as mad
		// requires: the probe channel, then the workload's.
		for i, sess := range sessions {
			at := i
			sess.Channel(probeChannel).OnMessage(func(packet.NodeID, *mad.Incoming) { t.probed() })
			for _, name := range w.channels {
				sess.Channel(name).OnMessage(func(src packet.NodeID, msg *mad.Incoming) {
					t.onMessage(at, src, msg)
				})
			}
		}
		for _, f := range w.flows {
			t.conns = append(t.conns, sessions[f.src].Channel(f.channel).Connect(packet.NodeID(f.dst)))
		}
	}
	// One message on every ordered pair: set-up is over when the whole
	// mesh has carried traffic, not when the constructors return.
	for src := 0; src < w.nodes; src++ {
		for dst := 0; dst < w.nodes; dst++ {
			if src == dst {
				continue
			}
			if w.mad {
				m := sessions[src].Channel(probeChannel).Connect(packet.NodeID(dst)).BeginPacking()
				m.Pack([]byte{1}, mad.SendCheaper, mad.RecvCheaper)
				m.EndPacking()
			} else if err := t.engines[src].Submit(&packet.Packet{
				Flow: probeFlow, Src: packet.NodeID(src), Dst: packet.NodeID(dst),
				Class: packet.ClassSmall, Last: true, Payload: []byte{1},
			}); err != nil {
				t.close()
				return nil, err
			}
		}
	}
	select {
	case <-t.ready:
		return t, nil
	case <-time.After(drainLimit):
		t.close()
		return nil, fmt.Errorf("set-up: %d of %d pairs carried a message in %v", t.probes.Load(), t.pairs, drainLimit)
	}
}

// probed counts one set-up probe delivered.
func (t *engineTx) probed() {
	if t.probes.Add(1) == t.pairs {
		close(t.ready)
	}
}

func (t *engineTx) close()         { t.closeFn() }
func (t *engineTx) attach(s *side) { t.s.Store(s) }

// rawFlow is the wire flow id of a raw workload flow (both directions of an
// echo flow use it: reassembly is per source).
func rawFlow(f *flow) packet.FlowID { return packet.FlowID(f.idx + 1) }

func (t *engineTx) send(f *flow, seq uint64, msg []byte) error {
	if !t.w.mad {
		return t.engines[f.src].Submit(&packet.Packet{
			Flow: rawFlow(f), Msg: packet.MsgID(seq), Seq: int(seq),
			Src: packet.NodeID(f.src), Dst: packet.NodeID(f.dst),
			Class: f.class, Last: true, Payload: msg,
		})
	}
	m := t.conns[f.idx].BeginPacking()
	m.Pack(msg[:headerLen], mad.SendCheaper, mad.RecvExpress)
	m.Pack(msg[headerLen:], mad.SendCheaper, mad.RecvCheaper)
	m.EndPacking()
	return nil
}

// onDeliver is the raw stacks' deliver upcall.
func (t *engineTx) onDeliver(node packet.NodeID, d proto.Deliverable) {
	if d.Pkt.Flow == probeFlow {
		t.probed()
		return
	}
	s, p := t.s.Load(), d.Pkt.Payload
	if len(p) < headerLen || int(d.Pkt.Flow) < 1 || int(d.Pkt.Flow) > len(t.w.flows) {
		s.seg.Load().failed.Add(1)
		return
	}
	if !s.deliver(int(node), int(d.Src), p[:headerLen], p[headerLen:]) {
		return
	}
	// An echo request: answer from inside the deliver callback, same bytes,
	// same sequence number, on the way back.
	f := &t.w.flows[d.Pkt.Flow-1]
	var sp *layers.Span
	if s.traces != nil {
		if sp = s.traces[f.idx][1].Span(d.Pkt.Seq); sp != nil {
			sp.SubmitIn.Store(s.tracer.Now())
		}
	}
	err := t.engines[f.dst].Submit(&packet.Packet{
		Flow: d.Pkt.Flow, Msg: d.Pkt.Msg, Seq: d.Pkt.Seq,
		Src: packet.NodeID(f.dst), Dst: packet.NodeID(f.src),
		Class: f.class, Last: true, Payload: p,
	})
	if sp != nil {
		sp.SubmitOut.Store(s.tracer.Now())
	}
	if err != nil {
		s.seg.Load().failed.Add(1)
	}
}

// onMessage is the mad stacks' assembled-message upcall. Beyond the bytes it
// checks what only mad can get wrong: the message boundary (exactly the two
// fragments that were packed) and which of them was express.
func (t *engineTx) onMessage(at int, src packet.NodeID, msg *mad.Incoming) {
	s := t.s.Load()
	if len(msg.Fragments) != 2 || !msg.Express[0] || msg.Express[1] {
		s.seg.Load().failed.Add(1)
		return
	}
	s.deliver(at, int(src), msg.Fragments[0], msg.Fragments[1])
}

// sources lists the stack's engines for a telemetry registry.
func (t *engineTx) sources() []telemetry.Source {
	var out []telemetry.Source
	for i, e := range t.engines {
		out = append(out, telemetry.Source{Node: packet.NodeID(i), Role: "node", Engine: e, Stats: t.stats[i]})
	}
	return out
}

// counters is the stack's own accounting, summed over nodes.
type counters struct {
	frames, idleUpcalls, nagleFires, rdvGranted uint64
	plans, planned                              float64 // data frames planned, packets in them
	backlogPeak                                 float64
}

func (t *engineTx) counters() counters {
	var c counters
	var m core.Metrics
	for i, e := range t.engines {
		e.MetricsInto(&m)
		c.frames += m.FramesPosted
		c.idleUpcalls += m.IdleUpcalls
		c.nagleFires += m.NagleFires
		c.rdvGranted += t.stats[i].CounterValue("core.rdv_granted")
		h := t.stats[i].Histogram("core.plan_packets")
		c.plans += float64(h.Count())
		c.planned += h.Sum()
		if pk, ok := t.stats[i].Gauge("core.backlog_peak"); ok {
			c.backlogPeak = max(c.backlogPeak, pk)
		}
	}
	return c
}

// add accumulates what happened between two snapshots of one stack.
func (c *counters) add(after, before counters) {
	c.frames += after.frames - before.frames
	c.idleUpcalls += after.idleUpcalls - before.idleUpcalls
	c.nagleFires += after.nagleFires - before.nagleFires
	c.rdvGranted += after.rdvGranted - before.rdvGranted
	c.plans += after.plans - before.plans
	c.planned += after.planned - before.planned
	c.backlogPeak = max(c.backlogPeak, after.backlogPeak)
}

// refTx drives the bare-socket reference.
type refTx struct {
	m *ref.Mesh
	s atomic.Pointer[side]
}

func newRefTx(w *workload) (*refTx, error) {
	t := &refTx{}
	m, err := ref.NewMesh(w.nodes, w.echo, func(src, dst int, p []byte) {
		s := t.s.Load()
		if len(p) < headerLen {
			s.seg.Load().failed.Add(1)
			return
		}
		s.deliver(dst, src, p[:headerLen], p[headerLen:])
	})
	t.m = m
	return t, err
}

func (t *refTx) send(f *flow, _ uint64, msg []byte) error { return t.m.Send(f.src, f.dst, msg) }
func (t *refTx) attach(s *side)                           { t.s.Store(s) }
func (t *refTx) close()                                   { t.m.Close() }
