package perf

import (
	"sync/atomic"
	"testing"

	"newmad/internal/core"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
)

// The collect-layer gates (DESIGN.md §2, §5): the message every one of them
// moves is the conglomerate's — an express header and a cheaper body.

// newSinkSession is a mad.Session over newEngineAt's sink engine.
func newSinkSession(tb testing.TB, node packet.NodeID) *mad.Session {
	tb.Helper()
	s, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
		e, _ := newEngineAt(tb, node, deliver)
		tb.Cleanup(e.Close)
		return e, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func packTwo(conn *mad.Connection, hdr, body []byte) {
	m := conn.BeginPacking()
	m.Pack(hdr, mad.SendCheaper, mad.RecvExpress)
	m.Pack(body, mad.SendCheaper, mad.RecvCheaper)
	m.EndPacking()
}

// TestAllocsMadPack pins the send side of the collect layer at one heap
// object per message — the Message, which carries its packets, its held
// list and its safer captures inline.
func TestAllocsMadPack(t *testing.T) {
	if raceDetector {
		// The two frames a message is posted in come from a sync.Pool; see
		// TestAllocsMeshRoundTrip.
		t.Skip("pool-dependent count is not the steady state under -race")
	}
	conn := newSinkSession(t, 0).Channel("app").Connect(1)
	hdr, body := make([]byte, 16), make([]byte, 1024)
	pack := func() { packTwo(conn, hdr, body) }
	for i := 0; i < 64; i++ {
		pack() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(500, pack); allocs > 1 {
		t.Fatalf("packing a two-fragment message costs %.2f allocs/op, budget is 1", allocs)
	}
}

// TestAllocsMadIngest pins the receive side at one heap object per message
// — the Incoming, with its fragment table inline. It is also the gate that
// keeps deliverables on the stack: a packet pointer leaking from ingest into
// an indirect call moves every Deliverable to the heap, one allocation per
// fragment, whether or not a fragment handler is installed.
func TestAllocsMadIngest(t *testing.T) {
	s := newSinkSession(t, 0)
	delivered := 0
	s.Channel("app").OnMessage(func(_ packet.NodeID, m *mad.Incoming) { delivered += len(m.Fragments) })
	flow := newSinkSession(t, 1).Channel("app").Connect(0).Flow() // what node 1 would send on
	hdr, body := make([]byte, 16), make([]byte, 1024)
	var msg packet.MsgID
	seq := 0
	ingest := func() {
		msg++
		s.Dispatch(proto.Deliverable{Src: 1, Pkt: packet.Packet{
			Flow: flow, Msg: msg, Seq: seq, Src: 1, Recv: packet.RecvExpress, Payload: hdr}})
		s.Dispatch(proto.Deliverable{Src: 1, Pkt: packet.Packet{
			Flow: flow, Msg: msg, Seq: seq + 1, Src: 1, Last: true, Payload: body}})
		seq += 2
	}
	ingest()
	if allocs := testing.AllocsPerRun(500, ingest); allocs > 1 {
		t.Fatalf("assembling and delivering a two-fragment message costs %.2f allocs/op, budget is 1", allocs)
	}
	if delivered != 2*502 {
		t.Fatalf("delivered %d fragments, want %d", delivered, 2*502)
	}
}

// newMadTransfer returns a function that moves one two-fragment message
// from node 0 to node 1 of a mesh pair through a mad.Session on each, and
// returns when node 1's message handler has run.
func newMadTransfer(tb testing.TB) (transfer func()) {
	tb.Helper()
	var sessions [2]atomic.Pointer[mad.Session] // read from the reader goroutines
	engines := newMeshPair(tb, func(node int, d proto.Deliverable) { sessions[node].Load().Dispatch(d) })
	done := make(chan struct{}, 1)
	for i, e := range engines {
		s := mad.NewSession(e)
		s.Channel("app").OnMessage(func(packet.NodeID, *mad.Incoming) { done <- struct{}{} })
		sessions[i].Store(s)
	}
	conn := sessions[0].Load().Channel("app").Connect(1)
	hdr, body := make([]byte, 16), make([]byte, 1024)
	return func() {
		packTwo(conn, hdr, body)
		<-done
	}
}

// TestAllocsMadMeshRoundTrip gates the same transfer's allocations. The
// steady state is 4 — the Message, the Incoming, and one delivered-payload
// block for each of the two data frames the message travels in (the header
// is posted when the body is packed, the rail being idle) — with one of
// slack as in TestAllocsMeshRoundTrip. The collect layer allocating per
// fragment again costs at least two; before inline storage this was 15.
func TestAllocsMadMeshRoundTrip(t *testing.T) {
	if raceDetector {
		// See TestAllocsMeshRoundTrip.
		t.Skip("pool-dependent count is not the steady state under -race")
	}
	transfer := newMadTransfer(t)
	for i := 0; i < 64; i++ {
		transfer() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(500, transfer); allocs > 5 {
		t.Fatalf("a message through mad over the mesh costs %.2f allocs/op, budget is 5", allocs)
	}
}
