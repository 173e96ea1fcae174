package mad

import (
	"bytes"
	"fmt"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// rig builds n sessions over a simulated MX cluster.
type rig struct {
	cl       *drivers.Cluster
	sessions []*Session
}

func newRig(t *testing.T, n int, bundle string) *rig {
	t.Helper()
	cl, err := drivers.NewCluster(n, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{cl: cl}
	for i := 0; i < n; i++ {
		node := packet.NodeID(i)
		b, err := strategy.New(bundle)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return core.New(node, core.Options{
				Bundle:  b,
				Runtime: cl.Eng,
				Rails:   []drivers.Driver{cl.Driver(node, "mx")},
				Deliver: deliver,
				Stats:   cl.Stats,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		r.sessions = append(r.sessions, s)
	}
	return r
}

func TestSingleFragmentMessage(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var got *Incoming
	r.sessions[1].Channel("app").OnMessage(func(src packet.NodeID, m *Incoming) { got = m })

	conn := r.sessions[0].Channel("app").Connect(1)
	msg := conn.BeginPacking()
	msg.Pack([]byte("hello"), SendCheaper, RecvCheaper)
	msg.EndPacking()
	r.cl.Eng.Run()

	if got == nil {
		t.Fatal("message not delivered")
	}
	if got.Src != 0 || len(got.Fragments) != 1 || string(got.Fragments[0]) != "hello" {
		t.Fatalf("got %+v", got)
	}
}

func TestMultiFragmentMessageOrderAndExpress(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var msgs []*Incoming
	var expressFrags []string
	ch1 := r.sessions[1].Channel("app")
	ch1.OnMessage(func(_ packet.NodeID, m *Incoming) { msgs = append(msgs, m) })
	ch1.OnExpress(func(_ packet.NodeID, f *packet.Packet) { expressFrags = append(expressFrags, string(f.Payload)) })

	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()
	m.Pack([]byte("hdr"), SendCheaper, RecvExpress)
	m.Pack([]byte("body1"), SendCheaper, RecvCheaper)
	m.Pack([]byte("body2"), SendCheaper, RecvCheaper)
	m.EndPacking()
	r.cl.Eng.Run()

	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	got := msgs[0]
	want := []string{"hdr", "body1", "body2"}
	for i, w := range want {
		if string(got.Fragments[i]) != w {
			t.Fatalf("fragment %d = %q, want %q", i, got.Fragments[i], w)
		}
	}
	if !got.Express[0] || got.Express[1] || got.Express[2] {
		t.Fatalf("express flags = %v", got.Express)
	}
	if len(expressFrags) != 1 || expressFrags[0] != "hdr" {
		t.Fatalf("express handler saw %v", expressFrags)
	}
}

func TestSendSaferCapturesImmediately(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var got *Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { got = m })

	buf := []byte("precious")
	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()
	m.Pack(buf, SendSafer, RecvCheaper)
	copy(buf, "CLOBBER!") // safer: the library captured at Pack time
	m.EndPacking()
	r.cl.Eng.Run()

	if got == nil || string(got.Fragments[0]) != "precious" {
		t.Fatalf("safer semantics violated: %q", got.Fragments[0])
	}
}

func TestSendLaterReadsAtEndPacking(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var got *Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { got = m })

	buf := []byte("draft___")
	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()
	m.Pack([]byte("hdr"), SendCheaper, RecvExpress)
	m.Pack(buf, SendLater, RecvCheaper)
	m.Pack([]byte("tail"), SendCheaper, RecvCheaper)
	copy(buf, "final___") // later: legal to rewrite until EndPacking
	m.EndPacking()
	r.cl.Eng.Run()

	if got == nil {
		t.Fatal("message not delivered")
	}
	if string(got.Fragments[1]) != "final___" {
		t.Fatalf("send_LATER read too early: %q", got.Fragments[1])
	}
	// Order at delivery remains pack order despite submission reordering.
	if string(got.Fragments[0]) != "hdr" || string(got.Fragments[2]) != "tail" {
		t.Fatalf("fragments misordered: %q %q %q", got.Fragments[0], got.Fragments[1], got.Fragments[2])
	}
}

func TestEmptyMessage(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var got *Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { got = m })
	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()
	m.EndPacking()
	r.cl.Eng.Run()
	if got == nil {
		t.Fatal("empty message produced no boundary")
	}
	if len(got.Fragments) != 1 || len(got.Fragments[0]) != 0 {
		t.Fatalf("empty message fragments = %v", got.Fragments)
	}
}

func TestSequentialMessagesOnOneConnection(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var msgs []*Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { msgs = append(msgs, m) })
	conn := r.sessions[0].Channel("app").Connect(1)
	for i := 0; i < 5; i++ {
		m := conn.BeginPacking()
		m.Pack([]byte(fmt.Sprintf("msg%d-a", i)), SendCheaper, RecvExpress)
		m.Pack([]byte(fmt.Sprintf("msg%d-b", i)), SendCheaper, RecvCheaper)
		m.EndPacking()
	}
	r.cl.Eng.Run()
	if len(msgs) != 5 {
		t.Fatalf("messages = %d", len(msgs))
	}
	for i, m := range msgs {
		if string(m.Fragments[0]) != fmt.Sprintf("msg%d-a", i) {
			t.Fatalf("message %d out of order: %q", i, m.Fragments[0])
		}
	}
}

func TestChannelsAreIndependentFlows(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var fromA, fromB []*Incoming
	r.sessions[1].Channel("a").OnMessage(func(_ packet.NodeID, m *Incoming) { fromA = append(fromA, m) })
	r.sessions[1].Channel("b").OnMessage(func(_ packet.NodeID, m *Incoming) { fromB = append(fromB, m) })
	// Sender must create channels in the same order.
	connA := r.sessions[0].Channel("a").Connect(1)
	connB := r.sessions[0].Channel("b").Connect(1)
	for i := 0; i < 3; i++ {
		ma := connA.BeginPacking()
		ma.Pack([]byte("A"), SendCheaper, RecvCheaper)
		ma.EndPacking()
		mb := connB.BeginPacking()
		mb.Pack([]byte("B"), SendCheaper, RecvCheaper)
		mb.EndPacking()
	}
	r.cl.Eng.Run()
	if len(fromA) != 3 || len(fromB) != 3 {
		t.Fatalf("deliveries: a=%d b=%d", len(fromA), len(fromB))
	}
}

func TestLargeFragmentTravelsByRendezvous(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var got *Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { got = m })
	payload := bytes.Repeat([]byte{7}, 128<<10)
	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()
	m.Pack([]byte("hdr"), SendCheaper, RecvExpress)
	m.Pack(payload, SendCheaper, RecvCheaper)
	m.EndPacking()
	r.cl.Eng.Run()
	if got == nil {
		t.Fatal("message not delivered")
	}
	if !bytes.Equal(got.Fragments[1], payload) {
		t.Fatal("bulk fragment corrupted")
	}
	if r.cl.Stats.CounterValue("core.rdv_started") == 0 {
		t.Fatal("large fragment did not use rendezvous")
	}
}

func TestPackingDisciplineEnforced(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	r.sessions[1].Channel("app") // receiver must know the channel too
	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("double BeginPacking", func() { conn.BeginPacking() })
	m.EndPacking()
	mustPanic("Pack after EndPacking", func() { m.Pack([]byte("x"), SendCheaper, RecvCheaper) })
	mustPanic("double EndPacking", func() { m.EndPacking() })
	mustPanic("connect to self", func() { r.sessions[0].Channel("app").Connect(0) })

	// A new message works after the previous one ended.
	m2 := conn.BeginPacking()
	m2.Pack([]byte("ok"), SendCheaper, RecvCheaper)
	m2.EndPacking()
	r.cl.Eng.Run()
}

func TestConnectionsAreMemoized(t *testing.T) {
	r := newRig(t, 3, "aggregate")
	ch := r.sessions[0].Channel("x")
	if ch.Connect(1) != ch.Connect(1) {
		t.Fatal("Connect not memoized")
	}
	if ch.Connect(1) == ch.Connect(2) {
		t.Fatal("distinct peers share a connection")
	}
	if ch.Name() != "x" {
		t.Fatal("name")
	}
	if r.sessions[0].Channel("x") != ch {
		t.Fatal("Channel not memoized")
	}
	if r.sessions[0].Node() != 0 || r.sessions[0].Engine() == nil {
		t.Fatal("session accessors")
	}
}

func TestClassifyDefaults(t *testing.T) {
	if classify(16, packet.RecvExpress) != packet.ClassControl {
		t.Fatal("tiny express should be control")
	}
	if classify(100, packet.RecvExpress) != packet.ClassSmall {
		t.Fatal("mid express should be small")
	}
	if classify(9000, packet.RecvCheaper) != packet.ClassBulk {
		t.Fatal("large should be bulk")
	}
	if classify(100, packet.RecvCheaper) != packet.ClassSmall {
		t.Fatal("small cheaper should be small")
	}
}

func TestManyMessagesBothDirections(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	counts := [2]int{}
	for n := 0; n < 2; n++ {
		n := n
		r.sessions[n].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { counts[n]++ })
	}
	conn01 := r.sessions[0].Channel("app").Connect(1)
	conn10 := r.sessions[1].Channel("app").Connect(0)
	rng := simnet.NewRNG(5)
	const n = 50
	for i := 0; i < n; i++ {
		for _, conn := range []*Connection{conn01, conn10} {
			m := conn.BeginPacking()
			m.Pack([]byte("h"), SendCheaper, RecvExpress)
			m.Pack(make([]byte, rng.Range(8, 2048)), SendCheaper, RecvCheaper)
			m.EndPacking()
		}
	}
	r.cl.Eng.Run()
	if counts[0] != n || counts[1] != n {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFlowIDEncoding(t *testing.T) {
	f := flowID(3, 7)
	if int(uint32(f)&(maxChannels-1)) != 3 {
		t.Fatal("channel index lost")
	}
	if uint32(f)>>channelBits != 7 {
		t.Fatal("source node lost")
	}
}
