package layers

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"newmad/internal/packet"
)

// Span holds the boundary stamps of one packet's trip through the stack,
// in nanoseconds since the tracer's epoch (0 = never stamped). Each stamp
// has one writer — the generator, the sending rail's wrapper, the receiving
// rail's wrapper, the deliver callback — and they are read only once the
// segment has drained; atomics keep that legal without a lock.
type Span struct {
	Due        atomic.Int64 // when the message was due to be sent
	SubmitIn   atomic.Int64 // generator entered the collect/submit call
	SubmitOut  atomic.Int64 // that call returned
	RTSPost    atomic.Int64 // rendezvous only: the RTS was posted
	Post       atomic.Int64 // the frame carrying the packet was posted
	Recv       atomic.Int64 // that frame reached the receiving rail's upcall
	DeliverIn  atomic.Int64 // the deliver callback was entered
	DeliverOut atomic.Int64 // and was done with the message (unset on a request that is answered)
}

// FlowKey names one direction of one flow as frames show it.
type FlowKey struct {
	Src, Dst packet.NodeID
	Flow     packet.FlowID
}

// FlowTrace maps the packet sequence numbers of one flow onto message
// spans. A message may be several packets (a header and a body); the one
// whose arrival completes it is the one traced: packet seq s belongs to
// message (s-offset)/stride when that division is exact.
type FlowTrace struct {
	Key            FlowKey
	stride, offset int
	armed          atomic.Pointer[armedSpans]
}

type armedSpans struct {
	base  int // first traced message index
	spans []Span
}

// Arm starts tracing n messages of the flow from message index base on. Call
// it while the flow is quiet.
func (ft *FlowTrace) Arm(base, n int) {
	ft.armed.Store(&armedSpans{base: base, spans: make([]Span, n)})
}

// Span returns message msg's span, or nil when it is outside the armed range.
func (ft *FlowTrace) Span(msg int) *Span {
	a := ft.armed.Load()
	if a == nil || msg < a.base || msg >= a.base+len(a.spans) {
		return nil
	}
	return &a.spans[msg-a.base]
}

func (ft *FlowTrace) bySeq(seq int) *Span {
	if seq < ft.offset || (seq-ft.offset)%ft.stride != 0 {
		return nil
	}
	return ft.Span((seq - ft.offset) / ft.stride)
}

// Tracer owns the spans of one traced run. Its flow table is replaced, never
// written in place: the rails look flows up from their own goroutines from
// the first frame on, before the benchmark has registered anything.
type Tracer struct {
	// Epoch is the zero of the tracer's clock. Due times handed to it must
	// count from here too.
	Epoch time.Time
	flows atomic.Pointer[map[FlowKey]*FlowTrace]
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	tr := &Tracer{Epoch: time.Now()}
	tr.flows.Store(&map[FlowKey]*FlowTrace{})
	return tr
}

// Now is the tracer's clock: nanoseconds since Epoch.
func (tr *Tracer) Now() int64 { return since(tr.Epoch) }

// Flow registers a flow direction (see FlowTrace for stride and offset).
// Registrations come from one goroutine.
func (tr *Tracer) Flow(key FlowKey, stride, offset int) *FlowTrace {
	ft := &FlowTrace{Key: key, stride: stride, offset: offset}
	next := map[FlowKey]*FlowTrace{key: ft}
	for k, v := range *tr.flows.Load() {
		next[k] = v
	}
	tr.flows.Store(&next)
	return ft
}

type stage uint8

const (
	stagePost stage = iota
	stageRecv
)

// stamp records now on every traced packet frame f carries.
func (tr *Tracer) stamp(f *packet.Frame, now int64, st stage) {
	flows := *tr.flows.Load()
	set := func(flow packet.FlowID, seq int, rts bool) {
		ft := flows[FlowKey{f.Src, f.Dst, flow}]
		if ft == nil {
			return
		}
		sp := ft.bySeq(seq)
		if sp == nil {
			return
		}
		switch {
		case rts:
			sp.RTSPost.CompareAndSwap(0, now)
		case st == stagePost:
			sp.Post.Store(now)
		default:
			sp.Recv.Store(now)
		}
	}
	switch f.Kind {
	case packet.FrameData:
		for i := range f.Entries {
			set(f.Entries[i].Flow, f.Entries[i].Seq, false)
		}
	case packet.FrameRTS:
		if st == stagePost {
			set(f.Ctrl.Flow, f.Ctrl.Seq, true)
		}
	case packet.FrameRData:
		set(f.Ctrl.Flow, f.Ctrl.Seq, false)
	}
}

// Stages is the per-stage decomposition of the traced messages, one sample
// per complete message, in microseconds. The stages partition a message's
// life: generator → submit → queue → wire → recv → deliver.
type Stages struct {
	Gen       []float64 // due → the generator reaches this message (its place in the tick's burst)
	Submit    []float64 // inside the collect/submit call
	Queue     []float64 // submit returned → the Post carrying the packet (rendezvous handshake included); negative when the call itself posted it
	Wire      []float64 // Post → the receiving rail's upcall (rail owner, kernel, reader, decode)
	Recv      []float64 // upcall → deliver callback (dispatch, reassembly, batching)
	Deliver   []float64 // inside the deliver callback
	E2E       []float64 // due → deliver callback returned
	Handshake []float64 // rendezvous only: RTS posted → RData posted
	// Incomplete counts messages with a missing stamp; they are left out.
	Incomplete int
}

// Message is one traced message: its legs in order — one span for a one-way
// message, request and reply for a round trip, where the reply is submitted
// from inside the request's deliver callback — and the flow direction each
// leg travelled on.
type Message struct {
	Flow, Seq int // the benchmark's flow index and message number
	Legs      []*Span
	Keys      []FlowKey
}

// Analyze decomposes messages into stages.
func Analyze(msgs []Message) *Stages {
	st := &Stages{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, m := range msgs {
		legs := m.Legs
		var submit, queue, wire, recv, deliver, handshake int64
		ok := true
		for i, sp := range legs {
			in, out, post := sp.SubmitIn.Load(), sp.SubmitOut.Load(), sp.Post.Load()
			rx, din, dout := sp.Recv.Load(), sp.DeliverIn.Load(), sp.DeliverOut.Load()
			if i+1 < len(legs) {
				// The next leg is submitted from inside this leg's deliver
				// callback: that submit ends this leg.
				dout = legs[i+1].SubmitIn.Load()
			}
			if in == 0 || out == 0 || post == 0 || rx == 0 || din == 0 || dout == 0 {
				ok = false
				break
			}
			submit += out - in
			queue += post - out
			wire += rx - post
			recv += din - rx
			deliver += dout - din
			if rts := sp.RTSPost.Load(); rts != 0 {
				handshake += post - rts
			}
		}
		if !ok {
			st.Incomplete++
			continue
		}
		first, last := legs[0], legs[len(legs)-1]
		st.Gen = append(st.Gen, us(first.SubmitIn.Load()-first.Due.Load()))
		st.Submit = append(st.Submit, us(submit))
		st.Queue = append(st.Queue, us(queue))
		st.Wire = append(st.Wire, us(wire))
		st.Recv = append(st.Recv, us(recv))
		st.Deliver = append(st.Deliver, us(deliver))
		st.E2E = append(st.E2E, us(last.DeliverOut.Load()-first.Due.Load()))
		if handshake > 0 {
			st.Handshake = append(st.Handshake, us(handshake))
		}
	}
	return st
}

// traceLeg is one leg of a message in the trace file.
type traceLeg struct {
	Src        int32 `json:"src"`
	Dst        int32 `json:"dst"`
	Flow       int32 `json:"flow"`
	SubmitIn   int64 `json:"submit_in_ns"`
	SubmitOut  int64 `json:"submit_out_ns"`
	RTSPost    int64 `json:"rts_post_ns,omitempty"`
	Post       int64 `json:"post_ns"`
	Recv       int64 `json:"recv_ns"`
	DeliverIn  int64 `json:"deliver_in_ns"`
	DeliverOut int64 `json:"deliver_out_ns"`
}

type traceLine struct {
	Flow int        `json:"flow"`
	Seq  int        `json:"seq"`
	Due  int64      `json:"due_ns"`
	Legs []traceLeg `json:"legs"`
}

// WriteJSONL writes one line per traced message: the benchmark's flow index
// and message number, the due time and the boundary stamps of each leg, all
// in nanoseconds since the tracer's epoch.
func WriteJSONL(path string, msgs []Message) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, m := range msgs {
		line := traceLine{Flow: m.Flow, Seq: m.Seq, Due: m.Legs[0].Due.Load()}
		for j, sp := range m.Legs {
			k := m.Keys[j]
			line.Legs = append(line.Legs, traceLeg{
				Src: int32(k.Src), Dst: int32(k.Dst), Flow: int32(k.Flow),
				SubmitIn: sp.SubmitIn.Load(), SubmitOut: sp.SubmitOut.Load(),
				RTSPost: sp.RTSPost.Load(), Post: sp.Post.Load(), Recv: sp.Recv.Load(),
				DeliverIn: sp.DeliverIn.Load(), DeliverOut: sp.DeliverOut.Load(),
			})
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
