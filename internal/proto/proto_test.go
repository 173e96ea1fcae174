package proto

import (
	"bytes"
	"testing"
	"testing/quick"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

func mkPkt(flow packet.FlowID, seq int, payload string) *packet.Packet {
	return &packet.Packet{
		Flow: flow, Msg: 1, Seq: seq, Src: 0, Dst: 1,
		Class: packet.ClassSmall, Payload: []byte(payload),
	}
}

func TestReassemblerInOrder(t *testing.T) {
	var got []string
	r := NewReassembler(1, func(d Deliverable) { got = append(got, string(d.Pkt.Payload)) })
	r.Ingest(0, mkPkt(1, 0, "a"))
	r.Ingest(0, mkPkt(1, 1, "b"))
	r.Ingest(0, mkPkt(1, 2, "c"))
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
	if r.PendingFragments() != 0 {
		t.Fatal("pending after in-order ingest")
	}
}

func TestReassemblerReordersWithinFlow(t *testing.T) {
	var got []string
	r := NewReassembler(1, func(d Deliverable) { got = append(got, string(d.Pkt.Payload)) })
	r.Ingest(0, mkPkt(1, 2, "c"))
	r.Ingest(0, mkPkt(1, 0, "a"))
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("premature release: %v", got)
	}
	if r.PendingFragments() != 1 {
		t.Fatalf("pending = %d, want 1", r.PendingFragments())
	}
	r.Ingest(0, mkPkt(1, 1, "b"))
	if len(got) != 3 || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestReassemblerIndependentFlows(t *testing.T) {
	var got []string
	r := NewReassembler(1, func(d Deliverable) {
		got = append(got, string(d.Pkt.Payload))
	})
	r.Ingest(0, mkPkt(2, 0, "x0"))
	r.Ingest(0, mkPkt(1, 1, "a1")) // flow 1 waits for seq 0
	r.Ingest(0, mkPkt(2, 1, "x1")) // flow 2 keeps flowing
	if len(got) != 2 {
		t.Fatalf("flow 2 blocked by flow 1: %v", got)
	}
	r.Ingest(0, mkPkt(1, 0, "a0"))
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestReassemblerScopesFlowsBySource(t *testing.T) {
	// Two senders reusing flow id 1 toward the same receiver must not
	// conflate: each (src, flow) pair is an independent stream.
	var got []string
	r := NewReassembler(9, func(d Deliverable) {
		got = append(got, string(d.Pkt.Payload))
	})
	r.Ingest(0, mkPkt(1, 0, "from0-a"))
	r.Ingest(1, mkPkt(1, 0, "from1-a")) // same flow/seq, different source
	r.Ingest(0, mkPkt(1, 1, "from0-b"))
	r.Ingest(1, mkPkt(1, 1, "from1-b"))
	if len(got) != 4 {
		t.Fatalf("delivered %d of 4 (source collision?)", len(got))
	}
	if r.PendingFragments() != 0 {
		t.Fatal("fragments stuck")
	}
}

// TestReassemblerDuplicatesDropped pins the exactly-once filter: a second
// copy of a delivered fragment, and a second copy of one still buffered out
// of order, are both dropped and counted — never delivered twice, never a
// crash. The failover/retry machinery depends on this to re-send frames
// whose fate a broken connection left ambiguous.
func TestReassemblerDuplicatesDropped(t *testing.T) {
	var got []string
	r := NewReassembler(1, func(d Deliverable) { got = append(got, string(d.Pkt.Payload)) })
	r.Ingest(0, mkPkt(1, 0, "a"))
	r.Ingest(0, mkPkt(1, 0, "a-again")) // already delivered
	r.Ingest(0, mkPkt(1, 2, "c"))
	r.Ingest(0, mkPkt(1, 2, "c-again")) // still buffered
	r.Ingest(0, mkPkt(1, 1, "b"))
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
	if r.Duplicates() != 2 {
		t.Fatalf("duplicates = %d, want 2", r.Duplicates())
	}
	if r.PendingFragments() != 0 {
		t.Fatal("fragments stuck after dedupe")
	}
}

// TestRendezvousRetryIdempotent replays the lossy-control-path recovery
// end to end: a retried RTS re-elicits the CTS without double-granting, a
// duplicate CTS does not double-fire the grant hook, and a replayed RData
// for a completed transfer is dropped — so the payload arrives exactly
// once no matter which control frame was lost and retried.
func TestRendezvousRetryIdempotent(t *testing.T) {
	var delivered []Deliverable
	reasm := NewReassembler(1, func(d Deliverable) { delivered = append(delivered, d) })
	var ctses []*packet.Frame
	rdvR := NewRdvReceiver(1, reasm, func(f *packet.Frame) { ctses = append(ctses, f) }, 0)
	grants := 0
	rdvS := NewRdvSender(0, func(uint64, *packet.Packet) { grants++ })

	p := &packet.Packet{Flow: 1, Msg: 1, Seq: 0, Last: true, Src: 0, Dst: 1,
		Class: packet.ClassBulk, Payload: []byte("payload")}
	rts := rdvS.Start(p)
	tok := rts.Ctrl.Token
	if !rdvS.Pending(tok) {
		t.Fatal("token not pending after Start")
	}

	// The RTS was lost: a retry rebuilds it, byte-identical in intent.
	retry := rdvS.RetryRTS(tok)
	if retry == nil || retry.Ctrl.Token != tok {
		t.Fatalf("retry RTS = %+v", retry)
	}

	// Both copies arrive; the receiver grants once but answers CTS twice
	// (the first CTS may have been the lost frame).
	rdvR.HandleRTS(rts)
	rdvR.HandleRTS(retry)
	if len(ctses) != 2 {
		t.Fatalf("CTSes = %d, want 2 (one per RTS copy)", len(ctses))
	}
	if rdvR.Granted() != 1 {
		t.Fatalf("granted = %d, want 1", rdvR.Granted())
	}
	if dupRTS, _, _ := rdvR.Anomalies(); dupRTS != 1 {
		t.Fatalf("dupRTS = %d, want 1", dupRTS)
	}

	// Both CTSes arrive; the grant hook fires once.
	rdvS.HandleCTS(ctses[0])
	rdvS.HandleCTS(ctses[1])
	if grants != 1 {
		t.Fatalf("grant hook fired %d times", grants)
	}
	if rdvS.DupCTS() != 1 {
		t.Fatalf("dupCTS = %d, want 1", rdvS.DupCTS())
	}
	if rdvS.RetryRTS(tok) != nil {
		t.Fatal("granted token still retryable")
	}

	// The RData travels, then a stale duplicate is replayed.
	rd := rdvS.BuildRData(tok)
	rdvR.HandleRData(0, rd)
	rdvR.HandleRData(0, rd)
	if len(delivered) != 1 || string(delivered[0].Pkt.Payload) != "payload" {
		t.Fatalf("delivered %v", delivered)
	}
	if _, dupRD, _ := rdvR.Anomalies(); dupRD != 1 {
		t.Fatalf("dupRData = %d, want 1", dupRD)
	}
	if rdvS.Outstanding() != 0 || rdvR.Granted() != 0 {
		t.Fatal("state leaked after the exchange")
	}
}

// TestRendezvousStragglerRTSAfterCompletion: an RTS copy that arrives
// AFTER its transfer already completed (it sat in a dead rail's queue while
// the retried copy won the race end to end) must not be re-granted — the
// sender has nothing left to send for the token, so a re-grant would hold
// a grant open forever.
func TestRendezvousStragglerRTSAfterCompletion(t *testing.T) {
	reasm := NewReassembler(1, func(Deliverable) {})
	var ctses []*packet.Frame
	rdvR := NewRdvReceiver(1, reasm, func(f *packet.Frame) { ctses = append(ctses, f) }, 0)
	rdvS := NewRdvSender(0, func(uint64, *packet.Packet) {})

	p := &packet.Packet{Flow: 1, Seq: 0, Last: true, Src: 0, Dst: 1, Payload: make([]byte, 16)}
	rts := rdvS.Start(p)
	rdvR.HandleRTS(rts)
	rdvS.HandleCTS(ctses[0])
	rdvR.HandleRData(0, rdvS.BuildRData(rts.Ctrl.Token))
	if rdvR.Granted() != 0 {
		t.Fatalf("granted = %d after completion", rdvR.Granted())
	}

	// The straggler copy of the same RTS arrives late: no grant, no CTS.
	before := len(ctses)
	rdvR.HandleRTS(rts)
	if rdvR.Granted() != 0 {
		t.Fatal("straggler RTS re-granted a completed transfer (slot leak)")
	}
	if len(ctses) != before {
		t.Fatal("straggler RTS re-elicited a CTS for a completed transfer")
	}
	if dupRTS, _, _ := rdvR.Anomalies(); dupRTS != 1 {
		t.Fatalf("dupRTS = %d, want 1", dupRTS)
	}

	// A fresh rendezvous still grants.
	p2 := &packet.Packet{Flow: 2, Seq: 0, Last: true, Src: 0, Dst: 1, Payload: make([]byte, 16)}
	rdvR.HandleRTS(rdvS.Start(p2))
	if rdvR.Granted() != 1 {
		t.Fatalf("fresh RTS not granted: granted=%d", rdvR.Granted())
	}
}

// TestRendezvousBadRDataDropped: an RData whose payload length contradicts
// the negotiated size is dropped (counted) and the grant stays open for the
// genuine frame.
func TestRendezvousBadRDataDropped(t *testing.T) {
	reasm := NewReassembler(1, func(Deliverable) {})
	var ctses []*packet.Frame
	rdvR := NewRdvReceiver(1, reasm, func(f *packet.Frame) { ctses = append(ctses, f) }, 0)
	rdvS := NewRdvSender(0, func(uint64, *packet.Packet) {})
	p := &packet.Packet{Flow: 1, Seq: 0, Last: true, Src: 0, Dst: 1, Payload: make([]byte, 32)}
	rts := rdvS.Start(p)
	rdvR.HandleRTS(rts)
	rdvS.HandleCTS(ctses[0])
	rd := rdvS.BuildRData(rts.Ctrl.Token)
	corrupt := *rd
	corrupt.Bulk = rd.Bulk[:16] // lies about its size
	rdvR.HandleRData(0, &corrupt)
	if _, _, badRD := rdvR.Anomalies(); badRD != 1 {
		t.Fatalf("badRData = %d, want 1", badRD)
	}
	if rdvR.Granted() != 1 {
		t.Fatal("grant lost to a corrupt RData")
	}
	rdvR.HandleRData(0, rd)
	if rdvR.Granted() != 0 {
		t.Fatal("genuine RData after corrupt one not accepted")
	}
}

// wireLanded returns f the way a socket reader hands it up: decoded from
// its encoding into a pooled frame backed by a landing buffer of its own.
func wireLanded(t *testing.T, f *packet.Frame) *packet.Frame {
	t.Helper()
	enc := f.Encode(nil)
	buf := packet.LandingBuf(len(enc), enc[:packet.HeaderSize])
	copy(buf.B, enc)
	out := packet.AcquireFrame()
	if _, err := packet.DecodeInto(out, buf.B); err != nil {
		t.Fatal(err)
	}
	out.SetBacking(buf)
	return out
}

// TestRendezvousDirectNeedsWireLanding: an RData that no CTS granted is a
// direct transfer when it arrived wire-landed — delivered once, the copy a
// dying rail may have written before its reclaim dropped — and an unknown
// token when it did not.
func TestRendezvousDirectNeedsWireLanding(t *testing.T) {
	var delivered []Deliverable
	reasm := NewReassembler(1, func(d Deliverable) { delivered = append(delivered, d) })
	rdvR := NewRdvReceiver(1, reasm, func(*packet.Frame) { t.Fatal("a direct transfer elicited a control frame") }, 0)
	rdvS := NewRdvSender(0, func(uint64, *packet.Packet) {})
	direct := func(flow packet.FlowID) *packet.Frame {
		return rdvS.Direct(&packet.Packet{Flow: flow, Msg: 1, Seq: 0, Last: true, Src: 0, Dst: 1,
			Class: packet.ClassBulk, Payload: []byte("payload")})
	}

	rd := direct(1)
	if rd.Kind != packet.FrameRData || rdvS.Outstanding() != 0 {
		t.Fatalf("Direct built %v and holds %d payloads", rd.Kind, rdvS.Outstanding())
	}
	rdvR.HandleRData(0, wireLanded(t, rd))
	rdvR.HandleRData(0, wireLanded(t, rd))
	if len(delivered) != 1 || string(delivered[0].Pkt.Payload) != "payload" {
		t.Fatalf("delivered %v, want the payload once", delivered)
	}
	rdvR.HandleRData(0, direct(2)) // unbacked: never reached a wire
	if len(delivered) != 1 {
		t.Fatal("an unbacked ungranted RData was delivered")
	}
	if _, dupRD, _ := rdvR.Anomalies(); dupRD != 2 {
		t.Fatalf("dupRData = %d, want 2 (the replay and the unbacked frame)", dupRD)
	}
	if rdvR.Granted() != 0 {
		t.Fatal("a direct transfer left a grant behind")
	}
}

// Property: any permutation of fragments 0..n-1 of a flow is delivered in
// exactly ascending order.
func TestReassemblerPermutationProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%20) + 1
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		rng := simnet.NewRNG(seed)
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		var got []int
		r := NewReassembler(1, func(d Deliverable) { got = append(got, d.Pkt.Seq) })
		for _, seq := range order {
			r.Ingest(0, mkPkt(1, seq, "p"))
		}
		if len(got) != n || r.PendingFragments() != 0 {
			return false
		}
		for i, s := range got {
			if s != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousFullExchange(t *testing.T) {
	// Wire sender node 0 and receiver node 1 back to back (no network):
	// frames produced by one side are handed straight to the other.
	var delivered []Deliverable
	reasm := NewReassembler(1, func(d Deliverable) { delivered = append(delivered, d) })

	var senderOut []*packet.Frame // frames node 0 wants sent
	var grants []uint64
	rdvS := NewRdvSender(0, func(tok uint64, p *packet.Packet) { grants = append(grants, tok) })
	rdvR := NewRdvReceiver(1, reasm, func(f *packet.Frame) { senderOut = append(senderOut, f) }, 0)

	payload := bytes.Repeat([]byte{0x42}, 100000)
	p := &packet.Packet{Flow: 5, Msg: 2, Seq: 7, Last: true, Src: 0, Dst: 1,
		Class: packet.ClassBulk, Payload: payload}

	rts := rdvS.Start(p)
	if rts.Kind != packet.FrameRTS || rts.Ctrl.Size != len(payload) {
		t.Fatalf("bad RTS: %+v", rts)
	}
	if rdvS.Outstanding() != 1 {
		t.Fatal("sender should track one pending rendezvous")
	}

	rdvR.HandleRTS(rts)
	if len(senderOut) != 1 || senderOut[0].Kind != packet.FrameCTS {
		t.Fatalf("receiver did not grant: %v", senderOut)
	}
	if rdvR.Granted() != 1 {
		t.Fatal("grant not counted")
	}

	rdvS.HandleCTS(senderOut[0])
	if len(grants) != 1 {
		t.Fatal("grant hook not invoked")
	}

	rdata := rdvS.BuildRData(grants[0])
	if rdata.Kind != packet.FrameRData || len(rdata.Bulk) != len(payload) {
		t.Fatalf("bad RData: %v", rdata)
	}
	if rdvS.Outstanding() != 0 {
		t.Fatal("pending not consumed by BuildRData")
	}

	// Fragment seq 7 requires seqs 0..6 first; feed them so delivery
	// happens in order.
	for i := 0; i < 7; i++ {
		reasm.Ingest(0, &packet.Packet{Flow: 5, Msg: 2, Seq: i, Src: 0, Dst: 1, Payload: []byte{1}})
	}
	rdvR.HandleRData(0, rdata)
	if len(delivered) != 8 {
		t.Fatalf("delivered = %d", len(delivered))
	}
	last := delivered[7].Pkt
	if last.Seq != 7 || !bytes.Equal(last.Payload, payload) || last.Class != packet.ClassBulk {
		t.Fatalf("rendezvous payload corrupted: %+v", last)
	}
	if rdvR.Granted() != 0 {
		t.Fatal("grant slot not released")
	}
}

func TestRendezvousUnknownTokenDropped(t *testing.T) {
	// A stray CTS (corrupted token, or a replay from before a restart) is
	// dropped and counted; only the engine-internal BuildRData path treats
	// an unknown token as fatal.
	rdvS := NewRdvSender(0, func(uint64, *packet.Packet) {})
	rdvS.HandleCTS(&packet.Frame{Kind: packet.FrameCTS, Ctrl: packet.Ctrl{Token: 99}})
	if rdvS.DupCTS() != 1 {
		t.Fatalf("dupCTS = %d, want 1", rdvS.DupCTS())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BuildRData for unknown token accepted")
		}
	}()
	rdvS.BuildRData(99)
}

func TestRMAPutGet(t *testing.T) {
	// Two nodes with direct frame exchange.
	var wires [2][]*packet.Frame
	rmaA := NewRMA(0, func(f *packet.Frame) { wires[0] = append(wires[0], f) })
	rmaB := NewRMA(1, func(f *packet.Frame) { wires[1] = append(wires[1], f) })

	window := make([]byte, 64)
	rmaB.RegisterWindow(7, window)

	// Put with completion.
	putDone := false
	put := rmaA.Put(1, 7, 16, []byte("hello"), func() { putDone = true })
	if put.Kind != packet.FramePut {
		t.Fatalf("put kind = %v", put.Kind)
	}
	rmaB.HandlePut(0, put)
	if string(window[16:21]) != "hello" {
		t.Fatalf("window = %q", window[10:26])
	}
	if len(wires[1]) != 1 || wires[1][0].Kind != packet.FrameAck {
		t.Fatal("put ack not emitted")
	}
	rmaA.HandleAck(wires[1][0])
	if !putDone {
		t.Fatal("put completion not invoked")
	}

	// Fire-and-forget put emits no ack.
	wires[1] = nil
	rmaB.HandlePut(0, rmaA.Put(1, 7, 0, []byte("x"), nil))
	if len(wires[1]) != 0 {
		t.Fatal("fire-and-forget put acked")
	}

	// Get round trip.
	var gotData []byte
	get := rmaA.Get(1, 7, 16, 5, func(data []byte) { gotData = data })
	rmaB.HandleGet(0, get)
	if len(wires[1]) != 1 || wires[1][0].Kind != packet.FrameGetReply {
		t.Fatal("get reply not emitted")
	}
	rmaA.HandleGetReply(wires[1][0])
	if string(gotData) != "hello" {
		t.Fatalf("get returned %q", gotData)
	}
	g, p := rmaA.Outstanding()
	if g != 0 || p != 0 {
		t.Fatalf("outstanding = %d gets, %d puts", g, p)
	}
}

func TestRMABoundsAndErrors(t *testing.T) {
	// Remote-originated irregularities — out-of-range spans, unknown
	// windows, unknown tokens — are rejected whole and counted: one corrupt
	// frame from a chaotic network must not crash the node or partially
	// apply. Local API misuse (a Get with no callback) still panics.
	win := make([]byte, 32)
	rma := NewRMA(1, func(*packet.Frame) {})
	rma.RegisterWindow(1, win)
	other := NewRMA(0, func(*packet.Frame) {})

	before := append([]byte(nil), win...)
	rejected := func(name string, want uint64, fn func()) {
		t.Helper()
		fn()
		if got := rma.Rejected(); got != want {
			t.Errorf("%s: rejected = %d, want %d", name, got, want)
		}
	}
	rejected("put out of range", 1, func() {
		rma.HandlePut(0, other.Put(1, 1, 30, []byte("toolong"), nil))
	})
	if string(win) != string(before) {
		t.Fatal("out-of-range put partially applied")
	}
	rejected("put unknown window", 2, func() {
		rma.HandlePut(0, other.Put(1, 9, 0, []byte("x"), nil))
	})
	rejected("get out of range", 3, func() {
		rma.HandleGet(0, other.Get(1, 1, 30, 10, func([]byte) {}))
	})
	rejected("get unknown window", 4, func() {
		rma.HandleGet(0, other.Get(1, 9, 0, 1, func([]byte) {}))
	})
	rejected("unknown get reply", 5, func() {
		rma.HandleGetReply(&packet.Frame{Kind: packet.FrameGetReply, Ctrl: packet.Ctrl{Token: 404}})
	})
	rejected("unknown ack", 6, func() {
		rma.HandleAck(&packet.Frame{Kind: packet.FrameAck, Ctrl: packet.Ctrl{Token: 404}})
	})
	defer func() {
		if recover() == nil {
			t.Error("get without callback did not panic")
		}
	}()
	other.Get(1, 1, 0, 1, nil)
}

// TestRMAGetOverWireLimitRejected: a remote get of an in-range span that
// no reply frame could carry is rejected and counted, not served — serving
// it would build a GetReply over packet.MaxFrameSize, which the node's own
// socket rail refuses to post.
func TestRMAGetOverWireLimitRejected(t *testing.T) {
	var replies int
	rma := NewRMA(1, func(*packet.Frame) { replies++ })
	rma.RegisterWindow(1, make([]byte, packet.MaxPayload+1))
	other := NewRMA(0, func(*packet.Frame) {})
	rma.HandleGet(0, other.Get(1, 1, 0, packet.MaxPayload+1, func([]byte) {}))
	if got := rma.Rejected(); got != 1 || replies != 0 {
		t.Fatalf("oversize get: rejected = %d, replies = %d; want 1 and 0", got, replies)
	}
	rma.HandleGet(0, other.Get(1, 1, 0, 16, func([]byte) {}))
	if got := rma.Rejected(); got != 1 || replies != 1 {
		t.Fatalf("in-limit get: rejected = %d, replies = %d; want 1 and 1", got, replies)
	}
}

func TestRMAGetReplyIsACopy(t *testing.T) {
	// HandleGet must snapshot the window: later writes to the window must
	// not alter an in-flight reply.
	var reply *packet.Frame
	rma := NewRMA(1, func(f *packet.Frame) { reply = f })
	win := []byte("original")
	rma.RegisterWindow(1, win)
	other := NewRMA(0, func(*packet.Frame) {})
	var got []byte
	g := other.Get(1, 1, 0, 8, func(d []byte) { got = d })
	rma.HandleGet(0, g)
	copy(win, "CLOBBER!")
	other.HandleGetReply(reply)
	if string(got) != "original" {
		t.Fatalf("reply aliased the window: %q", got)
	}
}

func TestDispatcherRouting(t *testing.T) {
	var delivered []Deliverable
	reasm := NewReassembler(1, func(d Deliverable) { delivered = append(delivered, d) })
	var out []*packet.Frame
	send := func(f *packet.Frame) { out = append(out, f) }
	rdvS := NewRdvSender(1, func(uint64, *packet.Packet) {})
	rdvR := NewRdvReceiver(1, reasm, send, 0)
	rma := NewRMA(1, send)
	w := make([]byte, 16)
	rma.RegisterWindow(1, w)
	d := NewDispatcher(1, reasm, rdvS, rdvR, rma)

	// Data frame with two entries from two flows.
	df := &packet.Frame{Kind: packet.FrameData, Src: 0, Dst: 1, Entries: []packet.Entry{
		{Flow: 1, Msg: 1, Seq: 0, Last: true, Payload: []byte("a")},
		{Flow: 2, Msg: 1, Seq: 0, Last: true, Payload: []byte("b")},
	}}
	d.HandleFrame(0, df)
	if len(delivered) != 2 {
		t.Fatalf("data entries delivered = %d", len(delivered))
	}

	// RTS routes to receiver engine and produces a CTS.
	peer := NewRdvSender(0, func(uint64, *packet.Packet) {})
	rts := peer.Start(&packet.Packet{Flow: 3, Seq: 0, Src: 0, Dst: 1, Payload: make([]byte, 8), Last: true})
	d.HandleFrame(0, rts)
	if len(out) != 1 || out[0].Kind != packet.FrameCTS {
		t.Fatal("RTS not routed")
	}

	// Put routes to RMA.
	otherRMA := NewRMA(0, func(*packet.Frame) {})
	d.HandleFrame(0, otherRMA.Put(1, 1, 0, []byte("zz"), nil))
	if string(w[:2]) != "zz" {
		t.Fatal("put not routed")
	}

	// Unknown kind panics.
	defer func() {
		if recover() == nil {
			t.Fatal("unknown frame kind accepted")
		}
	}()
	d.HandleFrame(0, &packet.Frame{Kind: packet.FrameKind(99)})
}

func TestDispatcherNilEnginePanics(t *testing.T) {
	d := NewDispatcher(1, nil, nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("frame for nil engine accepted")
		}
	}()
	d.HandleFrame(0, &packet.Frame{Kind: packet.FrameData})
}
