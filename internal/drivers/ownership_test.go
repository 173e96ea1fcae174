package drivers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// Ownership tests for the pooled frame lifecycle (DESIGN.md §5): a
// released frame (and its recycled wire buffer) must never be observable
// through any surviving reference. The scenarios below are exactly the
// paths where ownership changes hands off the happy path — the redial
// drain (frames written by a retiring owner), and failover reclaim (frames
// handed back from a dead connection). Run them under -race: pool
// corruption shows up as data races or as the payload fingerprints below
// going wrong.

// fingerprint returns size bytes that spell seq in every one of them.
func fingerprint(seq, size int) []byte {
	payload := make([]byte, size)
	binary.BigEndian.PutUint32(payload, uint32(seq))
	for i := 4; i < len(payload); i++ {
		payload[i] = byte(seq)
	}
	return payload
}

// fingerprinted reports whether p still spells seq.
func fingerprinted(p []byte, seq int) bool {
	if len(p) < 4 || int(binary.BigEndian.Uint32(p)) != seq {
		return false
	}
	for _, b := range p[4:] {
		if b != byte(seq) {
			return false
		}
	}
	return true
}

// pooledFrame builds a pool-acquired single-entry data frame whose payload
// fingerprints its sequence number in every byte.
func pooledFrame(src, dst packet.NodeID, seq, size int) *packet.Frame {
	f := packet.AcquireFrame()
	f.Kind = packet.FrameData
	f.Src, f.Dst = src, dst
	f.Entries = append(f.Entries, packet.Entry{
		Flow: 1, Msg: 1, Seq: seq, Last: true, Payload: fingerprint(seq, size),
	})
	return f
}

// pooledBulk is pooledFrame for the kind whose payload escapes to the
// application: a rendezvous RData frame, which the socket reader lands in an
// exact-size unpooled buffer instead of a pooled size class.
func pooledBulk(src, dst packet.NodeID, seq, size int) *packet.Frame {
	f := packet.AcquireFrame()
	f.Kind = packet.FrameRData
	f.Src, f.Dst = src, dst
	f.Ctrl = packet.Ctrl{Token: uint64(seq), Flow: 1, Msg: 1, Seq: seq, Size: size, Last: true}
	f.Bulk = fingerprint(seq, size)
	return f
}

// carried returns a fingerprinted frame's payload and the sequence number
// its headers claim, whichever of the two kinds it is.
func carried(f *packet.Frame) (payload []byte, seq int) {
	if f.Kind == packet.FrameRData {
		return f.Bulk, f.Ctrl.Seq
	}
	if len(f.Entries) != 1 {
		return nil, -1
	}
	return f.Entries[0].Payload, f.Entries[0].Seq
}

// fingerprintSink collects received frames the way the engine does: eager
// payloads are checked while the frame is borrowed, bulk payloads are pinned
// and kept (the dispatcher hands them to the application), then the frame is
// terminally released (recycling its backing buffer unless pinned).
// Corrupted or duplicated fingerprints convict a buffer recycled while still
// aliased; so does a kept bulk payload that no longer reads true at the end.
type fingerprintSink struct {
	t  *testing.T
	mu sync.Mutex
	// got maps seq -> copies seen; bad counts corrupt payloads.
	got  map[int]int
	bad  int
	kept map[int][]byte // pinned bulk payloads by seq, re-checked in check
}

func newFingerprintSink(t *testing.T) *fingerprintSink {
	return &fingerprintSink{t: t, got: map[int]int{}, kept: map[int][]byte{}}
}

func (s *fingerprintSink) recv(_ packet.NodeID, f *packet.Frame) {
	s.mu.Lock()
	if p, seq := carried(f); !fingerprinted(p, seq) {
		s.bad++
	} else {
		s.got[seq]++
		if f.Kind == packet.FrameRData {
			f.PinBacking()
			s.kept[seq] = p
		}
	}
	s.mu.Unlock()
	packet.ReleaseFrame(f)
}

func (s *fingerprintSink) distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *fingerprintSink) check(n int, dupsAllowed bool) {
	s.t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bad != 0 {
		s.t.Fatalf("%d corrupt payloads received — a pooled buffer was recycled while aliased", s.bad)
	}
	if len(s.got) != n {
		s.t.Fatalf("received %d distinct seqs, want %d", len(s.got), n)
	}
	for seq, p := range s.kept {
		if !fingerprinted(p, seq) {
			s.t.Fatalf("pinned bulk payload %d was overwritten after its frame was released", seq)
		}
	}
	if !dupsAllowed {
		for seq, c := range s.got {
			if c != 1 {
				s.t.Fatalf("seq %d delivered %d times", seq, c)
			}
		}
	}
}

// TestPooledFramesSurviveRedialDrain drains pooled frames through retiring
// connections: every few posts the sender re-dials, so queued frames are
// written by the retired rail's owner (which releases each after the
// write) while new posts ride the replacement. Every fourth frame is bulk
// (exact-size landing buffer, pinned by the sink) at a power-of-two payload.
// All frames must arrive exactly once, bit-intact.
func TestPooledFramesSurviveRedialDrain(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		sink := newFingerprintSink(t)
		nodes[1].SetRecvHandler(sink.recv)

		const frames = 200
		for seq := 0; seq < frames; seq++ {
			if seq%20 == 19 {
				// Replace the connection with queued traffic still aboard:
				// the retiring owner drains (and releases) what it holds.
				if err := nodes[0].Dial(1, nodes[1].Addr()); err != nil {
					t.Fatal(err)
				}
			}
			posted := false
			for !posted {
				ch := idleChannel(t, e, nodes[0])
				mk, size := pooledFrame, 512
				if seq%4 == 3 {
					mk, size = pooledBulk, 8<<10
				}
				err := nodes[0].Post(ch, mk(0, 1, seq, size), 0)
				if err == ErrChannelBusy {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				posted = true
			}
		}
		e.settle(t, "all frames delivered", func() bool { return sink.distinct() == frames })
		e.settle(t, "drains complete", func() bool { return nodes[0].Draining() == 0 })
		sink.check(frames, false)
	})
}

// idleChannel waits for one of m's send channels to be idle and returns it.
func idleChannel(t *testing.T, e meshEnv, m *Mesh) (ch int) {
	t.Helper()
	e.settle(t, "an idle channel", func() (ok bool) {
		ch, ok = m.FirstIdle()
		return ok
	})
	return ch
}

// TestPooledFramesSurviveFailoverReclaim severs a connection with pooled
// frames aboard: the reclaimed frames must come back intact (the failing
// owner hands them over instead of releasing them), survive the wait for a
// heal untouched, and deliver bit-intact when requeued on the replacement
// connection — the transfer of ownership that PR 4's failover paths rely
// on, now with pooling in play.
func TestPooledFramesSurviveFailoverReclaim(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		var mu sync.Mutex
		var reclaimed []*packet.Frame
		nodes[0].SetFrameLossHandler(func(peer packet.NodeID, frames []*packet.Frame) {
			mu.Lock()
			reclaimed = append(reclaimed, frames...)
			mu.Unlock()
		})
		sink := newFingerprintSink(t)
		nodes[1].SetRecvHandler(sink.recv)

		// Wedge the receiver inside the first frame's upcall so later writes
		// back up behind it, then sever the connection under them.
		unblock := make(chan struct{})
		first := true
		var gate sync.Mutex
		nodes[1].SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
			gate.Lock()
			wasFirst := first
			first = false
			gate.Unlock()
			if wasFirst {
				<-unblock
			}
			sink.recv(src, f)
		})

		if err := nodes[0].Post(0, pooledFrame(0, 1, 0, 512), 0); err != nil {
			t.Fatal(err)
		}
		e.settle(t, "first frame written", func() bool { return nodes[0].ChannelIdle(0) })
		const wedged = 3
		if err := nodes[0].Post(0, pooledFrame(0, 1, 1, 8<<20), 0); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Post(1, pooledBulk(0, 1, 2, 64<<10), 0); err != nil {
			t.Fatal(err)
		}
		e.wedge()
		if !nodes[0].BreakPeer(1) {
			t.Fatal("BreakPeer on a live peer reported no break")
		}
		close(unblock)
		e.settle(t, "frames reclaimed", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(reclaimed) >= wedged-1
		})

		// The reclaimed frames must still be exactly what was posted: an
		// owner that released them on the error path would hand back reset
		// (or reused) structs.
		mu.Lock()
		for _, f := range reclaimed {
			if p, seq := carried(f); !fingerprinted(p, seq) {
				t.Fatalf("reclaimed frame lost its payload or its fingerprint: %v", f)
			}
		}
		mu.Unlock()

		// Heal and fail the reclaimed frames over. The break cascades — the
		// receiver's reader error takes down its own outbound connection,
		// whose EOF the sender attributes to the peer — so a first heal can be
		// torn down again, reclaiming the frames a second time. Keep healing
		// and re-posting whatever comes back (what the engine's failover queue
		// does): the ownership contract is that an
		// undelivered frame is always either in our hands (reclaimed, intact)
		// or aboard exactly one live rail — never dropped, never released
		// early. The mid-write ambiguous frame may arrive twice, so duplicates
		// are legal — corruption is not.
		for heals := 0; sink.distinct() < wedged; heals++ {
			if heals == 100 {
				t.Fatalf("gave up after %d heals: %d of %d seqs delivered", heals, sink.distinct(), wedged)
			}
			mu.Lock()
			pend := reclaimed
			reclaimed = nil
			mu.Unlock()
			for _, f := range pend {
				for {
					err := nodes[0].Post(idleChannel(t, e, nodes[0]), f, 0)
					if err == nil {
						break
					}
					if errors.Is(err, ErrPeerDown) {
						if derr := nodes[0].Dial(1, nodes[1].Addr()); derr != nil {
							t.Fatal(derr)
						}
						continue
					}
					t.Fatal(err)
				}
			}
			e.settle(t, fmt.Sprintf("all %d seqs delivered, or frames reclaimed again", wedged), func() bool {
				mu.Lock()
				defer mu.Unlock()
				return sink.distinct() >= wedged || len(reclaimed) > 0
			})
		}
		sink.check(wedged, true)
	})
}
