package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/packet"
	"newmad/internal/proto"
)

// TestChaosSoakRailsAndPartition is the resilience battery's -race soak: a
// 3-node, 2-rail cluster carries live eager and rendezvous traffic in every
// direction while a scripted scenario kills and heals individual rails and
// partitions-and-heals one node pair, cycle after cycle. The assertions are
// total:
//
//   - zero lost payloads — frames stranded by a break are reclaimed and
//     failed over, frames with no path are retained until the heal;
//   - zero duplicated payloads — the reassembler's dedupe absorbs the
//     ambiguous mid-write re-sends;
//   - every observed peer-down has a matching recovery: when the script
//     ends, no rail still reports a peer down;
//   - the race detector stays quiet across the whole dance.
func TestChaosSoakRailsAndPartition(t *testing.T) {
	const (
		cycles    = 3
		smallSize = 256
		bulkSize  = 96 << 10
	)

	type key struct {
		src  packet.NodeID
		flow packet.FlowID
		seq  int
	}
	var mu sync.Mutex
	delivered := map[key]int{}
	var deliveredN atomic.Int64
	var downs atomic.Int64

	opts := Options{
		Nodes: 3,
		Rails: caps.RailProfiles(caps.TCP, 2),
		Raw:   true,
		OnDeliver: func(node packet.NodeID, d proto.Deliverable) {
			mu.Lock()
			delivered[key{d.Src, d.Pkt.Flow, d.Pkt.Seq}]++
			mu.Unlock()
			deliveredN.Add(1)
		},
		OnPeerDown: func(node packet.NodeID, rail int, peer packet.NodeID) {
			downs.Add(1)
		},
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The scenario: per cycle, flap one rail of the 0~1 edge, then
	// partition the 0~2 edge whole and heal it. Offsets are scheduled, so
	// the same script replays identically.
	var script chaos.Script
	at := 40 * time.Millisecond
	for cy := 0; cy < cycles; cy++ {
		rail := cy % 2
		script.Events = append(script.Events,
			chaos.Event{At: at, Op: chaos.OpRailDown, Node: 0, Peer: 1, Rail: rail},
			chaos.Event{At: at + 30*time.Millisecond, Op: chaos.OpRailHeal, Node: 0, Peer: 1, Rail: rail},
			chaos.Event{At: at + 50*time.Millisecond, Op: chaos.OpPartition, Node: 0, Peer: 2},
			chaos.Event{At: at + 90*time.Millisecond, Op: chaos.OpHeal, Node: 0, Peer: 2},
		)
		at += 130 * time.Millisecond
	}

	// Traffic: every ordered pair carries one small flow; 0->1 and 1->0
	// additionally carry bulk flows that travel by rendezvous.
	stop := make(chan struct{})
	var submitted [3]map[packet.FlowID]*atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		submitted[s] = map[packet.FlowID]*atomic.Int64{}
		for d := 0; d < 3; d++ {
			if s == d {
				continue
			}
			submitted[s][packet.FlowID(10+3*s+d)] = &atomic.Int64{}
		}
		if s < 2 {
			submitted[s][packet.FlowID(40+s)] = &atomic.Int64{}
		}
	}
	for s := 0; s < 3; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := c.Engine(packet.NodeID(s))
			seqs := map[packet.FlowID]int{}
			bulkTick := 0
			for {
				select {
				case <-stop:
					eng.Flush()
					return
				default:
				}
				for d := 0; d < 3; d++ {
					if s == d {
						continue
					}
					flow := packet.FlowID(10 + 3*s + d)
					p := &packet.Packet{
						Flow: flow, Msg: packet.MsgID(seqs[flow] + 1), Seq: seqs[flow], Last: true,
						Src: packet.NodeID(s), Dst: packet.NodeID(d),
						Class: packet.ClassSmall, Payload: make([]byte, smallSize),
					}
					if err := eng.Submit(p); err != nil {
						t.Errorf("submit small: %v", err)
						return
					}
					seqs[flow]++
					submitted[s][flow].Add(1)
				}
				bulkTick++
				if s < 2 && bulkTick%8 == 0 {
					flow := packet.FlowID(40 + s)
					p := &packet.Packet{
						Flow: flow, Msg: packet.MsgID(seqs[flow] + 1), Seq: seqs[flow], Last: true,
						Src: packet.NodeID(s), Dst: packet.NodeID(1 - s),
						Class: packet.ClassSmall, Payload: make([]byte, bulkSize),
					}
					if err := eng.Submit(p); err != nil {
						t.Errorf("submit bulk: %v", err)
						return
					}
					seqs[flow]++
					submitted[s][flow].Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	var tr chaos.Trace
	if err := c.RunScript(script, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(script.Events) {
		t.Fatalf("trace recorded %d of %d events", tr.Len(), len(script.Events))
	}
	close(stop)
	wg.Wait()

	// Total expected deliveries across all flows.
	total := int64(0)
	for s := range submitted {
		for _, n := range submitted[s] {
			total += n.Load()
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && deliveredN.Load() < total {
		// Periodic flushes drain anything the last heal re-enabled.
		for n := 0; n < 3; n++ {
			c.Engine(packet.NodeID(n)).Flush()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := deliveredN.Load(); got != total {
		t.Fatalf("lost payloads: delivered %d of %d (downs observed: %d)", got, total, downs.Load())
	}
	mu.Lock()
	for k, n := range delivered {
		if n != 1 {
			mu.Unlock()
			t.Fatalf("payload %v delivered %d times", k, n)
		}
	}
	mu.Unlock()

	// Recovery accounting: faults were genuinely injected, and none is
	// outstanding — every rail reaches every peer again.
	if downs.Load() == 0 {
		t.Fatal("soak observed no peer-down events; the script did nothing")
	}
	for n := 0; n < 3; n++ {
		for p := 0; p < 3; p++ {
			if n == p {
				continue
			}
			for ri, r := range c.Nodes[n].Rails {
				if r.PeerDown(packet.NodeID(p)) {
					t.Fatalf("node %d rail %d still reports peer %d down after the last heal (%s)",
						n, ri, p, tr.String())
				}
			}
		}
	}
}
