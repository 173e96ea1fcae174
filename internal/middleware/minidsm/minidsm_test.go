package minidsm

import (
	"bytes"
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
	cl   *drivers.Cluster
	dsms []*DSM
}

func newRig(t *testing.T, nodes, pages, pageSize int) *rig {
	t.Helper()
	cl, err := drivers.NewCluster(nodes, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{cl: cl}
	for i := 0; i < nodes; i++ {
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
		d, err := New(s, nodes, pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		r.dsms = append(r.dsms, d)
	}
	return r
}

func TestGeometryValidation(t *testing.T) {
	r := newRig(t, 2, 4, 256)
	if _, err := New(r.dsms[0].session, 1, 4, 256); err == nil {
		t.Fatal("single-node DSM accepted")
	}
	if _, err := New(r.dsms[0].session, 2, 0, 256); err == nil {
		t.Fatal("zero pages accepted")
	}
	if err := r.dsms[0].Read(99, func([]byte) {}); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if err := r.dsms[0].Write(0, 200, make([]byte, 100), nil); err == nil {
		t.Fatal("out-of-page write accepted")
	}
	if err := r.dsms[0].Read(0, nil); err == nil {
		t.Fatal("nil read callback accepted")
	}
}

func TestLocalHomeReadWrite(t *testing.T) {
	r := newRig(t, 2, 4, 128)
	// Page 0 homes on node 0.
	done := false
	if err := r.dsms[0].Write(0, 5, []byte("local"), func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("local write should complete synchronously")
	}
	var got []byte
	if err := r.dsms[0].Read(0, func(d []byte) { got = d }); err != nil {
		t.Fatal(err)
	}
	if string(got[5:10]) != "local" {
		t.Fatalf("read back %q", got[5:10])
	}
}

func TestRemoteReadWriteRoundTrip(t *testing.T) {
	r := newRig(t, 2, 4, 128)
	// Page 1 homes on node 1; node 0 writes then reads.
	wrote := false
	if err := r.dsms[0].Write(1, 0, []byte("remote-data"), func() { wrote = true }); err != nil {
		t.Fatal(err)
	}
	r.cl.Eng.Run()
	if !wrote {
		t.Fatal("remote write never acknowledged")
	}
	var got []byte
	if err := r.dsms[0].Read(1, func(d []byte) { got = d }); err != nil {
		t.Fatal(err)
	}
	r.cl.Eng.Run()
	if got == nil || string(got[:11]) != "remote-data" {
		t.Fatalf("read = %q", got)
	}
	// Second read hits the cache synchronously.
	var second []byte
	if err := r.dsms[0].Read(1, func(d []byte) { second = d }); err != nil {
		t.Fatal(err)
	}
	if second == nil {
		t.Fatal("cached read was not synchronous")
	}
	_, _, hits, misses := r.dsms[0].Stats()
	if hits < 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestInvalidationProtocol(t *testing.T) {
	r := newRig(t, 3, 6, 64)
	// Page 2 homes on node 2. Nodes 0 and 1 both read (becoming sharers).
	for n := 0; n < 2; n++ {
		if err := r.dsms[n].Read(2, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	r.cl.Eng.Run()

	// Node 0 writes the page: node 1's copy must be invalidated.
	if err := r.dsms[0].Write(2, 0, []byte("new!"), nil); err != nil {
		t.Fatal(err)
	}
	r.cl.Eng.Run()

	invSent, _, _, _ := r.dsms[2].Stats()
	if invSent == 0 {
		t.Fatal("home sent no invalidations")
	}
	_, invRcvd, _, _ := r.dsms[1].Stats()
	if invRcvd == 0 {
		t.Fatal("sharer received no invalidation")
	}

	// Node 1 re-reads: must miss the cache and see the new data.
	var got []byte
	if err := r.dsms[1].Read(2, func(d []byte) { got = d }); err != nil {
		t.Fatal(err)
	}
	r.cl.Eng.Run()
	if got == nil || string(got[:4]) != "new!" {
		t.Fatalf("stale read after invalidation: %q", got)
	}
}

func TestWriterCacheUpdatedInPlace(t *testing.T) {
	r := newRig(t, 2, 4, 64)
	// Node 0 caches page 1, then writes it: its own copy updates without
	// an invalidation round trip.
	if err := r.dsms[0].Read(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	r.cl.Eng.Run()
	if err := r.dsms[0].Write(1, 0, []byte("self"), nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := r.dsms[0].Read(1, func(d []byte) { got = d }); err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got[:4]) != "self" {
		t.Fatalf("writer's own cache stale: %q", got)
	}
}

func TestManyPagesRoundRobinHoming(t *testing.T) {
	const nodes, pages, psz = 3, 9, 32
	r := newRig(t, nodes, pages, psz)
	// Write a distinct pattern into every page from node 0; read each
	// back from node 1 and verify.
	for p := 0; p < pages; p++ {
		pattern := bytes.Repeat([]byte{byte(p + 1)}, 8)
		if err := r.dsms[0].Write(p, 0, pattern, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.cl.Eng.Run()
	got := make([][]byte, pages)
	for p := 0; p < pages; p++ {
		p := p
		if err := r.dsms[1].Read(p, func(d []byte) { got[p] = d }); err != nil {
			t.Fatal(err)
		}
	}
	r.cl.Eng.Run()
	for p := 0; p < pages; p++ {
		want := byte(p + 1)
		if got[p] == nil || got[p][0] != want || got[p][7] != want {
			t.Fatalf("page %d = %v, want pattern %d", p, got[p][:8], want)
		}
	}
}

func TestDSMTrafficMixesClasses(t *testing.T) {
	// DSM activity must generate both RMA traffic and control traffic —
	// the heterogeneous mix the traffic-class experiments rely on.
	r := newRig(t, 2, 4, 4096)
	for i := 0; i < 4; i++ {
		if err := r.dsms[0].Write(1, 0, bytes.Repeat([]byte{1}, 4096), nil); err != nil {
			t.Fatal(err)
		}
		if err := r.dsms[1].Read(0, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	r.cl.Eng.Run()
	if r.cl.Stats.CounterValue("core.rma_puts") == 0 {
		t.Fatal("no RMA puts")
	}
	if r.cl.Stats.CounterValue("core.rma_gets") == 0 {
		t.Fatal("no RMA gets")
	}
	if r.cl.Stats.CounterValue("core.submitted") == 0 {
		t.Fatal("no control messages")
	}
}

// TestAllocsControlToken pins what one control token costs end to end on the
// simulated cluster (send, wire, assembly, handler). Its 9-byte send_SAFER
// header is captured inside the mad.Message, not copied to the heap.
func TestAllocsControlToken(t *testing.T) {
	r := newRig(t, 2, 4, 64)
	token := func() {
		r.dsms[1].sendCtrl(0, opInvalidate, 1)
		r.cl.Eng.Run()
	}
	for i := 0; i < 64; i++ {
		token() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(200, token); allocs > 12 {
		t.Fatalf("a control token costs %.0f allocs, budget is 12 (13 with the header copied to the heap, 19 before inline fragment storage)", allocs)
	}
}
