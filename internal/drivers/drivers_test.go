package drivers

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

func simpleFrame(src, dst packet.NodeID, size int) *packet.Frame {
	return &packet.Frame{
		Kind: packet.FrameData, Src: src, Dst: dst,
		Entries: []packet.Entry{{Flow: 1, Msg: 1, Last: true, Payload: make([]byte, size)}},
	}
}

func TestClusterConstruction(t *testing.T) {
	cl, err := NewCluster(3, caps.MX, caps.Elan)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Fabrics) != 2 {
		t.Fatalf("fabrics = %d", len(cl.Fabrics))
	}
	d := cl.Driver(0, "mx")
	if d == nil || d.Caps().Name != "mx" {
		t.Fatal("mx driver missing")
	}
	all := cl.NodeDrivers(1)
	if len(all) != 2 {
		t.Fatalf("node drivers = %d", len(all))
	}
	if all[0].Caps().Name != "elan" || all[1].Caps().Name != "mx" {
		t.Fatalf("drivers not sorted: %s, %s", all[0].Caps().Name, all[1].Caps().Name)
	}
	if d.Name() != "mx@n0" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.Mem().CopyBandwidth <= 0 {
		t.Fatal("driver memory model unset")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(1, caps.MX); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := NewCluster(2); err == nil {
		t.Fatal("no-profile cluster accepted")
	}
	if _, err := NewCluster(2, caps.MX, caps.MX); err == nil {
		t.Fatal("duplicate profile accepted")
	}
}

func TestSimDriverRoundTrip(t *testing.T) {
	cl, err := NewCluster(2, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	src := cl.Driver(0, "mx")
	dst := cl.Driver(1, "mx")
	var got *packet.Frame
	idles := 0
	src.SetIdleHandler(func(ch int) { idles++ })
	dst.SetRecvHandler(func(from packet.NodeID, f *packet.Frame) { got = f })
	if err := src.Post(0, simpleFrame(0, 1, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Post(0, simpleFrame(0, 1, 100), 0); err != ErrChannelBusy {
		t.Fatalf("busy post: %v", err)
	}
	cl.Eng.Run()
	if got == nil || got.PayloadSize() != 100 {
		t.Fatal("frame not delivered through sim driver")
	}
	if idles != 1 {
		t.Fatalf("idle upcalls = %d", idles)
	}
	// Handlers can be cleared.
	src.SetIdleHandler(nil)
	dst.SetRecvHandler(nil)
	if err := src.Post(0, simpleFrame(0, 1, 8), 0); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run() // must not panic with nil handlers
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- Wall-clock driver conformance suite. ----------------------------------
//
// The real-socket driver must honor one contract in every shape it ships in
// (a single Mesh per node, or R rails per node): idle upcalls from sender
// goroutines, deliveries from reader goroutines, ErrChannelBusy on an
// occupied channel, errors (not panics) on misuse, and an idempotent Close.
// The conformance tests below run once per shape.

// wallTransport constructs an n-node fully connected cluster of one
// wall-clock transport shape.
type wallTransport struct {
	name string
	// capsName is the profile name the transport's Caps() must report;
	// channels the expected NumChannels() when built from caps.TCP.
	capsName string
	channels int
	make     func(n int, c caps.Caps) ([]Driver, func(), error)
	// railOf maps a channel index to the rail (independent FIFO pipe) it
	// belongs to; single-connection transports map everything to rail 0.
	railOf func(d Driver, ch int) int
}

func oneRail(Driver, int) int { return 0 }

// railBundle is the conformance adapter for a multi-rail node as it ships:
// the R mesh endpoints NewMeshRails returns, with their send channels laid
// end to end so the suite can post to any of them by one index. It has no
// logic of its own — no queue, no failover (the engine owns that) — so what
// the mesh-Nrail rows pin is that R endpoints of one node coexist and each
// keeps its own FIFO.
type railBundle struct {
	*Mesh   // rail 0 supplies the identity accessors
	rails   []*Mesh
	perRail int
}

func (b *railBundle) NumChannels() int { return len(b.rails) * b.perRail }

func (b *railBundle) rail(ch int) (*Mesh, int) {
	if ch < 0 || ch >= b.NumChannels() {
		return b.rails[0], -1 // the rail refuses the channel
	}
	return b.rails[ch/b.perRail], ch % b.perRail
}

func (b *railBundle) ChannelIdle(ch int) bool {
	r, local := b.rail(ch)
	return r.ChannelIdle(local)
}

func (b *railBundle) FirstIdle() (int, bool) {
	for i, r := range b.rails {
		if ch, ok := r.FirstIdle(); ok {
			return i*b.perRail + ch, true
		}
	}
	return 0, false
}

func (b *railBundle) Post(ch int, f *packet.Frame, extra simnet.Duration) error {
	r, local := b.rail(ch)
	return r.Post(local, f, extra)
}

func (b *railBundle) SetIdleHandler(fn IdleFunc) {
	for i, r := range b.rails {
		base := i * b.perRail
		if fn == nil {
			r.SetIdleHandler(nil)
			continue
		}
		r.SetIdleHandler(func(ch int) { fn(base + ch) })
	}
}

func (b *railBundle) SetRecvHandler(fn RecvFunc) {
	for _, r := range b.rails {
		r.SetRecvHandler(fn)
	}
}

func (b *railBundle) Close() error {
	var first error
	for _, r := range b.rails {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// multiRailTransport builds n nodes of R rails each and dials every rail to
// its namesake on every peer.
func multiRailTransport(rails int) wallTransport {
	return wallTransport{
		name:     fmt.Sprintf("mesh-%drail", rails),
		capsName: "tcp.r0",
		channels: rails * caps.TCP.Channels,
		make: func(n int, c caps.Caps) ([]Driver, func(), error) {
			ds := make([]Driver, n)
			cleanup := func() {
				for _, d := range ds {
					if d != nil {
						d.Close()
					}
				}
			}
			for i := range ds {
				rs, err := NewMeshRails(packet.NodeID(i), caps.RailProfiles(c, rails), TCP)
				if err != nil {
					cleanup()
					return nil, nil, err
				}
				ds[i] = &railBundle{Mesh: rs[0], rails: rs, perRail: c.Channels}
			}
			for i, a := range ds {
				for j, b := range ds {
					if i == j {
						continue
					}
					for k, r := range a.(*railBundle).rails {
						if err := r.Dial(packet.NodeID(j), b.(*railBundle).rails[k].Addr()); err != nil {
							cleanup()
							return nil, nil, err
						}
					}
				}
			}
			return ds, cleanup, nil
		},
		railOf: func(d Driver, ch int) int { return ch / d.(*railBundle).perRail },
	}
}

func wallTransports() []wallTransport {
	return []wallTransport{
		{"mesh", "tcp", caps.TCP.Channels, func(n int, c caps.Caps) ([]Driver, func(), error) {
			nodes, cleanup, err := NewMeshCluster(n, c)
			if err != nil {
				return nil, nil, err
			}
			ds := make([]Driver, len(nodes))
			for i, m := range nodes {
				ds[i] = m
			}
			return ds, cleanup, nil
		}, oneRail},
		multiRailTransport(1),
		multiRailTransport(2),
		multiRailTransport(4),
	}
}

func forEachWallTransport(t *testing.T, fn func(t *testing.T, tr wallTransport)) {
	for _, tr := range wallTransports() {
		tr := tr
		t.Run(tr.name, func(t *testing.T) { fn(t, tr) })
	}
}

func TestWallDriverRoundTrip(t *testing.T) {
	forEachWallTransport(t, func(t *testing.T, tr wallTransport) {
		nodes, cleanup, err := tr.make(2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		recv := make(chan *packet.Frame, 1)
		idle := make(chan int, 1)
		nodes[1].SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
			if src != 0 {
				t.Errorf("src = %d", src)
			}
			recv <- f
		})
		nodes[0].SetIdleHandler(func(ch int) { idle <- ch })

		f := &packet.Frame{
			Kind: packet.FrameData, Src: 0, Dst: 1,
			Entries: []packet.Entry{
				{Flow: 3, Msg: 9, Seq: 0, Last: false, Recv: packet.RecvExpress, Payload: []byte("head")},
				{Flow: 3, Msg: 9, Seq: 1, Last: true, Payload: []byte("body")},
			},
		}
		if err := nodes[0].Post(0, f, 0); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-recv:
			if len(got.Entries) != 2 || string(got.Entries[0].Payload) != "head" {
				t.Fatalf("frame corrupted: %+v", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("frame never arrived")
		}
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatal("idle upcall never fired")
		}
	})
}

func TestWallDriverBidirectional(t *testing.T) {
	forEachWallTransport(t, func(t *testing.T, tr wallTransport) {
		nodes, cleanup, err := tr.make(3, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		var mu sync.Mutex
		got := map[packet.NodeID]int{}
		done := make(chan struct{}, 16)
		for _, n := range nodes {
			n := n
			n.SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
				mu.Lock()
				got[n.Node()]++
				mu.Unlock()
				done <- struct{}{}
			})
		}
		// Every node sends one frame to every other node.
		sent := 0
		for _, a := range nodes {
			for _, b := range nodes {
				if a.Node() == b.Node() {
					continue
				}
				ch, ok := a.FirstIdle()
				if !ok {
					t.Fatal("no idle channel")
				}
				if err := a.Post(ch, simpleFrame(a.Node(), b.Node(), 32), 0); err != nil {
					t.Fatal(err)
				}
				sent++
				// Wait for this frame before reusing channels (keep it simple).
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("frame lost")
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, n := range got {
			total += n
		}
		if total != sent {
			t.Fatalf("delivered %d of %d", total, sent)
		}
	})
}

func TestWallDriverErrors(t *testing.T) {
	// One frame past the limit the readers enforce; Post must refuse it on
	// every socket driver rather than let the peer's reader kill the stream.
	oversized := &packet.Frame{Kind: packet.FramePut, Src: 0, Dst: 1, Bulk: make([]byte, packet.MaxFrameSize)}
	forEachWallTransport(t, func(t *testing.T, tr wallTransport) {
		nodes, cleanup, err := tr.make(2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		n0 := nodes[0]
		if err := n0.Post(99, simpleFrame(0, 1, 8), 0); err == nil {
			t.Fatal("bad channel accepted")
		}
		if err := n0.Post(0, simpleFrame(1, 0, 8), 0); err == nil {
			t.Fatal("foreign src accepted")
		}
		if err := n0.Post(0, simpleFrame(0, 7, 8), 0); err == nil {
			t.Fatal("unconnected destination accepted")
		}
		if err := n0.Post(0, oversized, 0); err == nil {
			t.Fatal("oversized frame accepted; it would poison the peer link")
		}
		if n0.NumChannels() != tr.channels {
			t.Fatalf("channels = %d, want %d", n0.NumChannels(), tr.channels)
		}
		if n0.Node() != 0 || n0.Caps().Name != tr.capsName || n0.Name() == "" {
			t.Fatal("identity accessors broken")
		}
	})
}

func TestWallDriverCloseIdempotentAndPostAfterClose(t *testing.T) {
	forEachWallTransport(t, func(t *testing.T, tr wallTransport) {
		nodes, cleanup, err := tr.make(2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		if err := nodes[0].Close(); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Close(); err != nil {
			t.Fatal("second close errored")
		}
		if err := nodes[0].Post(0, simpleFrame(0, 1, 8), 0); err == nil {
			t.Fatal("post after close accepted")
		}
	})
}

// TestWallDriverFlowOrderAcrossRails pins down the ordering contract when
// one flow stripes across send units: frames that travel the same rail
// (the same underlying connection) arrive in post order — TCP FIFO per
// rail — while frames on different rails may race, which is why every
// frame carries its sequence number and reassembly happens above the
// driver. The test posts one flow round-robin over every channel of every
// rail and verifies (a) nothing is lost or duplicated and (b) per-rail
// arrival order equals per-rail post order.
func TestWallDriverFlowOrderAcrossRails(t *testing.T) {
	forEachWallTransport(t, func(t *testing.T, tr wallTransport) {
		nodes, cleanup, err := tr.make(2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		const frames = 96
		numCh := nodes[0].NumChannels()

		type arrival struct{ rail, seq int }
		var mu sync.Mutex
		var got []arrival
		nodes[1].SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
			if len(f.Entries) != 1 || len(f.Entries[0].Payload) < 8 {
				t.Errorf("malformed striped frame: %+v", f)
				return
			}
			p := f.Entries[0].Payload
			mu.Lock()
			got = append(got, arrival{
				rail: int(p[0])<<8 | int(p[1]),
				seq:  int(p[4])<<8 | int(p[5]),
			})
			mu.Unlock()
		})
		idle := make(chan struct{}, numCh*4)
		nodes[0].SetIdleHandler(func(int) {
			select {
			case idle <- struct{}{}:
			default:
			}
		})

		for seq := 0; seq < frames; seq++ {
			ch := seq % numCh
			for !nodes[0].ChannelIdle(ch) {
				select {
				case <-idle:
				case <-time.After(5 * time.Second):
					t.Fatalf("channel %d never freed at seq %d", ch, seq)
				}
			}
			rail := tr.railOf(nodes[0], ch)
			f := &packet.Frame{
				Kind: packet.FrameData, Src: 0, Dst: 1,
				Entries: []packet.Entry{{
					Flow: 1, Msg: 1, Seq: seq, Last: seq == frames-1,
					Payload: []byte{byte(rail >> 8), byte(rail), 0, 0, byte(seq >> 8), byte(seq), 0, 0},
				}},
			}
			if err := nodes[0].Post(ch, f, 0); err != nil {
				t.Fatalf("post seq %d on ch %d: %v", seq, ch, err)
			}
		}

		waitFor(t, 10*time.Second, "all striped frames", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) >= frames
		})
		mu.Lock()
		defer mu.Unlock()
		if len(got) != frames {
			t.Fatalf("received %d frames, posted %d", len(got), frames)
		}
		seen := make([]bool, frames)
		lastPerRail := map[int]int{}
		for i, a := range got {
			if a.seq < 0 || a.seq >= frames || seen[a.seq] {
				t.Fatalf("arrival %d: bad or duplicate seq %d", i, a.seq)
			}
			seen[a.seq] = true
			if last, ok := lastPerRail[a.rail]; ok && a.seq < last {
				t.Fatalf("rail %d reordered: seq %d arrived after %d", a.rail, a.seq, last)
			}
			lastPerRail[a.rail] = a.seq
		}
		// Multi-rail transports must actually have striped the flow.
		if want := tr.railOf(nodes[0], numCh-1) + 1; len(lastPerRail) != want {
			t.Fatalf("flow touched %d rails, transport has %d", len(lastPerRail), want)
		}
	})
}

func TestWallDriverChannelBusySemantics(t *testing.T) {
	forEachWallTransport(t, func(t *testing.T, tr wallTransport) {
		nodes, cleanup, err := tr.make(2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		// Saturate channel 0 with a large frame and verify ErrChannelBusy can
		// occur, then that the channel recovers.
		idle := make(chan struct{}, 8)
		nodes[0].SetIdleHandler(func(int) { idle <- struct{}{} })
		nodes[1].SetRecvHandler(func(packet.NodeID, *packet.Frame) {})
		if err := nodes[0].Post(0, simpleFrame(0, 1, 1<<20), 0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatal("channel never became idle")
		}
		if !nodes[0].ChannelIdle(0) {
			t.Fatal("channel not idle after upcall")
		}
		if err := nodes[0].Post(0, simpleFrame(0, 1, 8), 0); err != nil {
			t.Fatalf("post after idle: %v", err)
		}
	})
}
