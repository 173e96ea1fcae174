package mad

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"newmad/internal/packet"
	"newmad/internal/proto"
)

// The tests below pin what inline fragment storage (inlineFrags slots and
// the saferArena inside Message, the frags/express backing inside Incoming)
// must not change.

// A handler may keep the *Incoming: later messages of the same flow get
// their own object, inline backing included.
func TestRetainedIncomingOutlivesLaterMessages(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var kept []*Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { kept = append(kept, m) })
	conn := r.sessions[0].Channel("app").Connect(1)
	const n = 101
	for i := 0; i < n; i++ {
		m := conn.BeginPacking()
		m.Pack([]byte(fmt.Sprintf("hdr-%d", i)), SendSafer, RecvExpress)
		m.Pack([]byte(fmt.Sprintf("body-%d", i)), SendCheaper, RecvCheaper)
		m.EndPacking()
		r.cl.Eng.Run()
	}
	if len(kept) != n {
		t.Fatalf("messages = %d, want %d", len(kept), n)
	}
	for i, m := range kept {
		if m.Src != 0 || m.Msg != packet.MsgID(i+1) || len(m.Fragments) != 2 || len(m.Express) != 2 {
			t.Fatalf("retained message %d = %+v", i, m)
		}
		if string(m.Fragments[0]) != fmt.Sprintf("hdr-%d", i) || string(m.Fragments[1]) != fmt.Sprintf("body-%d", i) {
			t.Fatalf("retained message %d reads %q %q", i, m.Fragments[0], m.Fragments[1])
		}
		if !m.Express[0] || m.Express[1] {
			t.Fatalf("retained message %d express flags = %v", i, m.Express)
		}
	}
}

// Every assignment of the three send modes to inlineFrags+2 fragments: the
// message spills past both inline arrays, the held list is compacted in
// place with send_LATER fragments in every position, and the safer arena
// fills up part-way through. Fragments must arrive in pack order with the
// bytes each mode promises and the right express flags.
func TestSendModesInEveryPositionPastTheInlineCount(t *testing.T) {
	const frags = inlineFrags + 2
	modes := [...]packet.SendMode{SendCheaper, SendSafer, SendLater}
	combos := 1
	for i := 0; i < frags; i++ {
		combos *= len(modes)
	}
	r := newRig(t, 2, "aggregate")
	var got []*Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { got = append(got, m) })
	conn := r.sessions[0].Channel("app").Connect(1)

	want := func(c, i int) []byte {
		// 20–29 bytes: the second or third safer fragment of a message
		// overflows the 48-byte arena.
		return []byte(fmt.Sprintf("c%04d-f%d-%s", c, i, "xxxxxxxxxxxxxxxxxxxx"[:11+(c+i)%10]))
	}
	express := func(c, i int) bool { return (c>>i)&1 == 0 }
	for c := 0; c < combos; c++ {
		m := conn.BeginPacking()
		var bufs [frags][]byte
		for i, k := 0, c; i < frags; i, k = i+1, k/len(modes) {
			send, recv := modes[k%len(modes)], RecvCheaper
			if express(c, i) {
				recv = RecvExpress
			}
			bufs[i] = want(c, i)
			if send == SendLater {
				bufs[i] = bytes.Repeat([]byte{'?'}, len(bufs[i])) // a draft, finished below
			}
			m.Pack(bufs[i], send, recv)
			if send == SendSafer {
				copy(bufs[i], "CLOBBERED-CLOBBERED-CLOBBERED-") // captured at Pack
			}
		}
		for i, k := 0, c; i < frags; i, k = i+1, k/len(modes) {
			if modes[k%len(modes)] == SendLater {
				copy(bufs[i], want(c, i)) // read at EndPacking
			}
		}
		m.EndPacking()
	}
	r.cl.Eng.Run()

	if len(got) != combos {
		t.Fatalf("messages = %d, want %d", len(got), combos)
	}
	for c, m := range got {
		if len(m.Fragments) != frags || len(m.Express) != frags {
			t.Fatalf("combo %d: %d fragments, %d flags", c, len(m.Fragments), len(m.Express))
		}
		for i := range m.Fragments {
			if !bytes.Equal(m.Fragments[i], want(c, i)) || m.Express[i] != express(c, i) {
				t.Fatalf("combo %d fragment %d = %q express %v, want %q express %v",
					c, i, m.Fragments[i], m.Express[i], want(c, i), express(c, i))
			}
		}
	}
}

// Fragment handlers get a copy of the packet: whatever they do to it, the
// assembled message is built from what arrived.
func TestFragmentHandlersCannotAlterTheMessage(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	ch := r.sessions[1].Channel("app")
	scribble := func(_ packet.NodeID, f *packet.Packet) {
		f.Payload = []byte("forged")
		f.Recv = RecvCheaper
		f.Msg += 7
		f.Last = !f.Last
	}
	var sawExpress int
	ch.OnFragment(scribble)
	ch.OnExpress(func(src packet.NodeID, f *packet.Packet) {
		sawExpress++
		scribble(src, f)
	})
	var got []*Incoming
	ch.OnMessage(func(_ packet.NodeID, m *Incoming) { got = append(got, m) })

	conn := r.sessions[0].Channel("app").Connect(1)
	for i := 0; i < 2; i++ {
		m := conn.BeginPacking()
		m.Pack([]byte("hdr"), SendCheaper, RecvExpress)
		m.Pack([]byte("body"), SendCheaper, RecvCheaper)
		m.EndPacking()
	}
	r.cl.Eng.Run()

	if len(got) != 2 || sawExpress != 2 {
		t.Fatalf("messages = %d, express callbacks = %d", len(got), sawExpress)
	}
	for i, m := range got {
		if m.Msg != packet.MsgID(i+1) || len(m.Fragments) != 2 ||
			string(m.Fragments[0]) != "hdr" || string(m.Fragments[1]) != "body" ||
			!m.Express[0] || m.Express[1] {
			t.Fatalf("message %d = %+v", i, m)
		}
	}
}

// A safer fragment that does not fit the arena is copied to the heap: the
// caller's buffer is its own again the moment Pack returns, at any size.
func TestSendSaferLargerThanArenaIsIsolated(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	var got *Incoming
	r.sessions[1].Channel("app").OnMessage(func(_ packet.NodeID, m *Incoming) { got = m })

	small := bytes.Repeat([]byte{'s'}, saferArena-8)
	big := bytes.Repeat([]byte{'b'}, 4*saferArena)
	tail := bytes.Repeat([]byte{'t'}, 8) // exactly fills what small left
	conn := r.sessions[0].Channel("app").Connect(1)
	m := conn.BeginPacking()
	for _, buf := range [][]byte{small, big, tail} {
		m.Pack(buf, SendSafer, RecvCheaper)
		for i := range buf {
			buf[i] = '!'
		}
	}
	m.EndPacking()
	r.cl.Eng.Run()

	if got == nil || len(got.Fragments) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i, b := range []byte{'s', 'b', 't'} {
		want := bytes.Repeat([]byte{b}, []int{saferArena - 8, 4 * saferArena, 8}[i])
		if !bytes.Equal(got.Fragments[i], want) {
			t.Fatalf("safer fragment %d reads %q", i, got.Fragments[i])
		}
	}
}

// Dispatch reads the channel table without the session lock and Connect
// does not share a lock with assembly: creating channels, connecting and
// delivering concurrently must be race-free (run under -race in CI).
func TestDispatchRacesChannelCreationAndConnect(t *testing.T) {
	r := newRig(t, 2, "aggregate")
	s := r.sessions[1]
	first := s.Channel("ch0")
	var mu sync.Mutex
	delivered := 0
	first.OnMessage(func(packet.NodeID, *Incoming) { mu.Lock(); delivered++; mu.Unlock() })

	const readers, perReader = 2, 200
	var wg sync.WaitGroup
	for src := 0; src < readers; src++ {
		wg.Add(1)
		go func(src packet.NodeID) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				s.Dispatch(proto.Deliverable{Src: src, Pkt: packet.Packet{
					Flow: flowID(0, src), Msg: packet.MsgID(i + 1), Seq: i, Last: true, Payload: []byte("x")}})
			}
		}(packet.NodeID(2 + src)) // sources that are not this node
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 64; i++ {
			s.Channel(fmt.Sprintf("ch%d", i))
			first.Connect(0)
		}
	}()
	wg.Wait()
	if delivered != readers*perReader {
		t.Fatalf("delivered %d, want %d", delivered, readers*perReader)
	}
	if s.Channel("ch64").index != 64 || s.Channel("ch0") != first {
		t.Fatal("channel table lost an entry")
	}
}
