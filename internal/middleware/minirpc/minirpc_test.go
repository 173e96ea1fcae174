package minirpc

import (
	"bytes"
	"fmt"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/strategy"
)

type rig struct {
	cl    *drivers.Cluster
	peers []*Peer
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	cl, err := drivers.NewCluster(n, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{cl: cl}
	for i := 0; i < n; i++ {
		node := packet.NodeID(i)
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		s, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
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
		r.peers = append(r.peers, New(s))
	}
	return r
}

func TestBasicCall(t *testing.T) {
	r := newRig(t, 2)
	r.peers[1].Register("echo", func(src packet.NodeID, args []byte) []byte {
		return append([]byte("echo:"), args...)
	})
	var result []byte
	var callErr error
	r.peers[0].Call(1, "echo", []byte("hi"), func(res []byte, err error) {
		result, callErr = res, err
	})
	r.cl.Eng.Run()
	if callErr != nil {
		t.Fatal(callErr)
	}
	if string(result) != "echo:hi" {
		t.Fatalf("result = %q", result)
	}
	if r.peers[0].Outstanding() != 0 {
		t.Fatal("call still pending")
	}
}

func TestUnknownMethod(t *testing.T) {
	r := newRig(t, 2)
	var callErr error
	r.peers[0].Call(1, "missing", nil, func(_ []byte, err error) { callErr = err })
	r.cl.Eng.Run()
	if callErr == nil {
		t.Fatal("unknown method did not error")
	}
}

func TestManyOutstandingCalls(t *testing.T) {
	r := newRig(t, 2)
	r.peers[1].Register("double", func(_ packet.NodeID, args []byte) []byte {
		out := make([]byte, len(args))
		for i, b := range args {
			out[i] = b * 2
		}
		return out
	})
	const n = 40
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		r.peers[0].Call(1, "double", []byte{byte(i)}, func(res []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		})
	}
	if r.peers[0].Outstanding() != n {
		t.Fatalf("outstanding = %d", r.peers[0].Outstanding())
	}
	r.cl.Eng.Run()
	for i, res := range results {
		if len(res) != 1 || res[0] != byte(i*2) {
			t.Fatalf("call %d result = %v", i, res)
		}
	}
	// Concurrent small calls should have aggregated.
	if r.cl.Stats.CounterValue("core.aggregates") == 0 {
		t.Fatal("rpc storm produced no aggregation")
	}
}

func TestBidirectionalCalls(t *testing.T) {
	r := newRig(t, 2)
	for i := 0; i < 2; i++ {
		i := i
		r.peers[i].Register("who", func(_ packet.NodeID, _ []byte) []byte {
			return []byte(fmt.Sprintf("node%d", i))
		})
	}
	var a, b []byte
	r.peers[0].Call(1, "who", nil, func(res []byte, _ error) { a = res })
	r.peers[1].Call(0, "who", nil, func(res []byte, _ error) { b = res })
	r.cl.Eng.Run()
	if string(a) != "node1" || string(b) != "node0" {
		t.Fatalf("a=%q b=%q", a, b)
	}
}

func TestNestedCallFromHandler(t *testing.T) {
	// A handler on node 1 calls node 2 before answering — re-entrant use
	// of the stack from a delivery context.
	r := newRig(t, 3)
	r.peers[2].Register("leaf", func(_ packet.NodeID, args []byte) []byte {
		return append(args, '!')
	})
	r.peers[1].Register("relay", func(src packet.NodeID, args []byte) []byte {
		// Handlers must return synchronously, so the relay pattern posts
		// the downstream call and stitches the reply via a second RPC
		// back to the origin. Register the continuation first.
		r.peers[1].Call(2, "leaf", args, func(res []byte, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			r.peers[1].Call(0, "notify", res, func([]byte, error) {})
		})
		return []byte("relayed")
	})
	var notified []byte
	r.peers[0].Register("notify", func(_ packet.NodeID, args []byte) []byte {
		notified = append([]byte(nil), args...)
		return nil
	})
	var direct []byte
	r.peers[0].Call(1, "relay", []byte("x"), func(res []byte, _ error) { direct = res })
	r.cl.Eng.Run()
	if string(direct) != "relayed" {
		t.Fatalf("direct = %q", direct)
	}
	if string(notified) != "x!" {
		t.Fatalf("notified = %q", notified)
	}
}

func TestLargeArgsAndResults(t *testing.T) {
	r := newRig(t, 2)
	big := bytes.Repeat([]byte{0xEE}, 200<<10)
	r.peers[1].Register("sum", func(_ packet.NodeID, args []byte) []byte {
		var s byte
		for _, b := range args {
			s += b
		}
		return bytes.Repeat([]byte{s}, 100<<10)
	})
	var res []byte
	r.peers[0].Call(1, "sum", big, func(out []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		res = out
	})
	r.cl.Eng.Run()
	if len(res) != 100<<10 {
		t.Fatalf("result size = %d", len(res))
	}
	// 200 KiB args exceed the MX rendezvous threshold.
	if r.cl.Stats.CounterValue("core.rdv_started") == 0 {
		t.Fatal("large args did not use rendezvous")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newRig(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	r.peers[0].Register("x", nil)
}

// TestAllocsCall pins what one call costs end to end on the simulated
// cluster (request and response: send, wire, assembly, handler). Both
// send_SAFER headers are captured inside their mad.Message, not copied to
// the heap a second time.
func TestAllocsCall(t *testing.T) {
	r := newRig(t, 2)
	r.peers[1].Register("echo", func(_ packet.NodeID, args []byte) []byte { return args })
	args := make([]byte, 256)
	got := 0
	done := func([]byte, error) { got++ }
	call := func() {
		r.peers[0].Call(1, "echo", args, done)
		r.cl.Eng.Run()
	}
	for i := 0; i < 64; i++ {
		call() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(200, call); allocs > 43 {
		t.Fatalf("a call costs %.0f allocs, budget is 43 (42 measured, 43 under -race; 44 with the header copied to the heap, 66 before inline fragment storage)", allocs)
	}
	if got != 64+201 {
		t.Fatalf("completed %d calls, want %d", got, 64+201)
	}
}
