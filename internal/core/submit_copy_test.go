package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestSubmitCopiesCallerPacket pins Submit's ownership rule: the engine
// queues its own copy of the caller's Packet, so a caller that overwrites
// and resubmits its struct while the first submission still waits in the
// backlog re-keys nothing, and the engine never writes to the caller's
// struct. Many rounds recycle the engine's copies through its free list and
// spare slot while other copies are queued; the concurrent arm races
// submitters on the spare slot (run it under -race).
func TestSubmitCopiesCallerPacket(t *testing.T) {
	t.Run("sim", submitCopiesSim)
	t.Run("concurrent", submitCopiesConcurrent)
}

// copyPayload is the payload of round r on side 0 or 1: distinct bytes and
// distinct lengths, so a delivery carrying the other side's bytes shows.
func copyPayload(r, side int) []byte {
	return bytes.Repeat([]byte{byte(r), byte(side)}, 4+4*side)
}

// checkUntouched fails when Submit wrote to the caller's packet.
func checkUntouched(t testing.TB, p *packet.Packet) {
	if p.SubmitSeq != 0 || p.Enqueued != 0 {
		t.Errorf("Submit wrote to the caller's packet: SubmitSeq %d, Enqueued %v", p.SubmitSeq, p.Enqueued)
	}
}

// submitCopiesSim holds each round's first packet behind an armed Nagle
// delay or a busy channel, then overwrites every field of the caller's one
// Packet and submits it again to another destination.
func submitCopiesSim(t *testing.T) {
	const rounds = 64
	tn := newNet(t, 3, "aggregate", func(o *Options) {
		o.NagleDelay = 5 * simnet.Microsecond
	}, singleChanMX())
	var p packet.Packet
	for r := 0; r < rounds; r++ {
		p = packet.Packet{
			Flow: 1, Msg: 1, Seq: r, Src: 0, Dst: 1,
			Class: packet.ClassSmall, Payload: copyPayload(r, 0),
		}
		if err := tn.engines[0].Submit(&p); err != nil {
			t.Fatal(err)
		}
		checkUntouched(t, &p)
		p.Dst, p.Class, p.Flow, p.Seq, p.Payload = 2, packet.ClassBulk, 2, r, copyPayload(r, 1)
		if err := tn.engines[0].Submit(&p); err != nil {
			t.Fatal(err)
		}
		checkUntouched(t, &p)
		if r%3 == 2 {
			tn.cl.Eng.Run()
		}
	}
	tn.cl.Eng.Run()
	for side, node := range []int{1, 2} {
		got := tn.inbox[node]
		if len(got) != rounds {
			t.Fatalf("node %d: %d deliveries, want %d", node, len(got), rounds)
		}
		wantClass := []packet.ClassID{packet.ClassSmall, packet.ClassBulk}[side]
		for r, d := range got {
			if d.Src != 0 || d.Pkt.Flow != packet.FlowID(side+1) || d.Pkt.Seq != r ||
				d.Pkt.Class != wantClass || !bytes.Equal(d.Pkt.Payload, copyPayload(r, side)) {
				t.Fatalf("node %d delivery %d: src %d flow %d seq %d class %v payload %v; want flow %d seq %d class %v payload %v",
					node, r, d.Src, d.Pkt.Flow, d.Pkt.Seq, d.Pkt.Class, d.Pkt.Payload,
					side+1, r, wantClass, copyPayload(r, side))
			}
		}
	}
}

// recordingSink is an always-idle rail that records what every posted data
// frame carries and releases it, as a wire rail's owner does after the
// write. Its idle upcall keeps the backlog moving.
type recordingSink struct {
	mu     sync.Mutex
	got    map[string]int // "flow/seq/dst/class/payload" -> count
	onIdle drivers.IdleFunc
}

func (d *recordingSink) Name() string                       { return "sink" }
func (d *recordingSink) Node() packet.NodeID                { return 0 }
func (d *recordingSink) Caps() caps.Caps                    { return caps.MX }
func (d *recordingSink) Mem() memsim.Model                  { return memsim.DefaultModel() }
func (d *recordingSink) NumChannels() int                   { return caps.MX.Channels }
func (d *recordingSink) ChannelIdle(int) bool               { return true }
func (d *recordingSink) FirstIdle() (int, bool)             { return 0, true }
func (d *recordingSink) SetIdleHandler(fn drivers.IdleFunc) { d.onIdle = fn }
func (d *recordingSink) SetRecvHandler(drivers.RecvFunc)    {}
func (d *recordingSink) Close() error                       { return nil }

func (d *recordingSink) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	d.mu.Lock()
	for _, en := range f.Entries {
		d.got[entryKey(en.Flow, en.Seq, f.Dst, en.Class, en.Payload)]++
	}
	d.mu.Unlock()
	packet.ReleaseFrame(f)
	d.onIdle(ch)
	return nil
}

func entryKey(flow packet.FlowID, seq int, dst packet.NodeID, class packet.ClassID, payload []byte) string {
	return fmt.Sprintf("%d/%d/%d/%d/%x", flow, seq, dst, class, payload)
}

// submitCopiesConcurrent has four submitters, each rewriting one Packet of
// its own for every Submit (destination, class, sequence and payload all
// move), against a rail whose idle upcalls plan while they submit: every
// frame entry must carry what its own Submit saw.
func submitCopiesConcurrent(t *testing.T) {
	const submitters, perFlow = 4, 500
	b, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{got: map[string]int{}}
	e, err := New(0, Options{
		Bundle:  b,
		Runtime: simnet.NewRealRuntime(),
		Rails:   []drivers.Driver{sink},
		Deliver: func(proto.Deliverable) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := map[string]int{}
	payloads := make([][][]byte, submitters)
	for g := range payloads {
		payloads[g] = make([][]byte, perFlow)
		for s := range payloads[g] {
			payloads[g][s] = []byte{byte(g), byte(s), byte(s >> 8)}
		}
	}
	// shape gives submission s of flow f its destination and class.
	shape := func(s int) (packet.NodeID, packet.ClassID) {
		return packet.NodeID(1 + s%2), []packet.ClassID{packet.ClassSmall, packet.ClassBulk, packet.ClassControl}[s%3]
	}
	for g := 0; g < submitters; g++ {
		for s := 0; s < perFlow; s++ {
			dst, class := shape(s)
			want[entryKey(packet.FlowID(g+1), s, dst, class, payloads[g][s])]++
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p packet.Packet
			for s := 0; s < perFlow; s++ {
				dst, class := shape(s)
				p = packet.Packet{
					Flow: packet.FlowID(g + 1), Msg: 1, Seq: s, Src: 0, Dst: dst,
					Class: class, Payload: payloads[g][s],
				}
				if err := e.Submit(&p); err != nil {
					t.Error(err)
					return
				}
				checkUntouched(t, &p)
			}
		}()
	}
	wg.Wait()
	e.Flush()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.got) != len(want) {
		t.Fatalf("rail carried %d distinct entries, want %d", len(sink.got), len(want))
	}
	for k, n := range want {
		if sink.got[k] != n {
			t.Fatalf("entry %s carried %d times, want %d", k, sink.got[k], n)
		}
	}
}
