package minimpi

import (
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

// job builds an n-rank world over a simulated MX cluster.
type job struct {
	cl     *drivers.Cluster
	worlds []*World
}

func newJob(t *testing.T, n int) *job {
	t.Helper()
	cl, err := drivers.NewCluster(n, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{cl: cl}
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
		w, err := New(s, n)
		if err != nil {
			t.Fatal(err)
		}
		j.worlds = append(j.worlds, w)
	}
	return j
}

func TestNewValidation(t *testing.T) {
	j := newJob(t, 2)
	if _, err := New(j.worlds[0].session, 0); err == nil {
		t.Fatal("zero-size world accepted")
	}
	if j.worlds[0].rank != 0 || j.worlds[1].rank != 1 || j.worlds[0].size != 2 {
		t.Fatal("rank is not the session's node, or size not the argument")
	}
}

func TestSendRecvBasic(t *testing.T) {
	j := newJob(t, 2)
	var got []byte
	var gotSrc int
	var gotTag int64
	j.worlds[1].Recv(0, 7, func(src int, tag int64, data []byte) {
		gotSrc, gotTag, got = src, tag, data
	})
	if err := j.worlds[0].Send(1, 7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	j.cl.Eng.Run()
	if gotSrc != 0 || gotTag != 7 || string(got) != "payload" {
		t.Fatalf("recv = src %d tag %d %q", gotSrc, gotTag, got)
	}
}

func TestSendValidation(t *testing.T) {
	j := newJob(t, 2)
	if err := j.worlds[0].Send(0, 1, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := j.worlds[0].Send(5, 1, nil); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := j.worlds[0].Send(1, -2, nil); err == nil {
		t.Fatal("negative tag accepted")
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	j := newJob(t, 2)
	// Message arrives before the receive is posted.
	if err := j.worlds[0].Send(1, 3, []byte("early")); err != nil {
		t.Fatal(err)
	}
	j.cl.Eng.Run()
	_, unexpected := j.worlds[1].Pending()
	if unexpected != 1 {
		t.Fatalf("unexpected queue = %d", unexpected)
	}
	var got []byte
	j.worlds[1].Recv(AnySource, AnyTag, func(_ int, _ int64, data []byte) { got = data })
	if string(got) != "early" {
		t.Fatalf("late recv got %q", got)
	}
	p, u := j.worlds[1].Pending()
	if p != 0 || u != 0 {
		t.Fatal("queues not drained")
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	j := newJob(t, 3)
	var order []string
	j.worlds[2].Recv(1, 5, func(src int, tag int64, _ []byte) {
		order = append(order, fmt.Sprintf("from1tag5"))
	})
	j.worlds[2].Recv(0, AnyTag, func(src int, tag int64, _ []byte) {
		order = append(order, fmt.Sprintf("from0tag%d", tag))
	})
	if err := j.worlds[0].Send(2, 9, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.worlds[1].Send(2, 5, nil); err != nil {
		t.Fatal(err)
	}
	j.cl.Eng.Run()
	if len(order) != 2 {
		t.Fatalf("matched %d", len(order))
	}
	seen := map[string]bool{}
	for _, o := range order {
		seen[o] = true
	}
	if !seen["from1tag5"] || !seen["from0tag9"] {
		t.Fatalf("order = %v", order)
	}
}

func TestZeroByteMessage(t *testing.T) {
	j := newJob(t, 2)
	called := false
	j.worlds[1].Recv(0, 1, func(_ int, _ int64, data []byte) {
		called = true
		if len(data) != 0 {
			t.Errorf("data = %v", data)
		}
	})
	if err := j.worlds[0].Send(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	j.cl.Eng.Run()
	if !called {
		t.Fatal("zero-byte message lost")
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		j := newJob(t, n)
		done := make([]bool, n)
		for r := 0; r < n; r++ {
			r := r
			j.worlds[r].Barrier(func() { done[r] = true })
		}
		j.cl.Eng.Run()
		for r, d := range done {
			if !d {
				t.Fatalf("n=%d: rank %d stuck in barrier", n, r)
			}
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	cl, _ := drivers.NewCluster(2, caps.MX)
	b, _ := strategy.New("aggregate")
	s, err := mad.Bind(0, func(deliver proto.DeliverFunc) (*core.Engine, error) {
		return core.New(0, core.Options{
			Bundle: b, Runtime: cl.Eng,
			Rails:   []drivers.Driver{cl.Driver(0, "mx")},
			Deliver: deliver,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := New(s, 1)
	called := false
	w.Barrier(func() { called = true })
	if !called {
		t.Fatal("1-rank barrier should complete synchronously")
	}
}

func TestRepeatedBarriers(t *testing.T) {
	const n, rounds = 4, 5
	j := newJob(t, n)
	counts := make([]int, n)
	var enter func(r int)
	enter = func(r int) {
		j.worlds[r].Barrier(func() {
			counts[r]++
			if counts[r] < rounds {
				enter(r)
			}
		})
	}
	for r := 0; r < n; r++ {
		enter(r)
	}
	j.cl.Eng.Run()
	for r, c := range counts {
		if c != rounds {
			t.Fatalf("rank %d completed %d barriers", r, c)
		}
	}
}

func TestHaloExchangePattern(t *testing.T) {
	// The classic stencil neighbor exchange: every rank sends to left and
	// right neighbors (ring) and receives from both — a workload whose
	// small messages from many flows is exactly the paper's target.
	const n = 6
	j := newJob(t, n)
	received := make([]int, n)
	for r := 0; r < n; r++ {
		r := r
		left, right := (r-1+n)%n, (r+1)%n
		j.worlds[r].Recv(left, 100, func(int, int64, []byte) { received[r]++ })
		j.worlds[r].Recv(right, 101, func(int, int64, []byte) { received[r]++ })
		if err := j.worlds[r].Send(right, 100, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		if err := j.worlds[r].Send(left, 101, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	j.cl.Eng.Run()
	for r, c := range received {
		if c != 2 {
			t.Fatalf("rank %d received %d halos", r, c)
		}
	}
}

func TestAlltoallAggregatesAcrossFlows(t *testing.T) {
	// Several concurrent all-to-all exchanges of small messages keep every
	// NIC busy, so later sends accumulate as backlog and the optimizer
	// finds cross-flow aggregation material (tags keep the exchanges
	// separate).
	const n, concurrent = 6, 4
	j := newJob(t, n)
	received := 0
	for round := 0; round < concurrent; round++ {
		for r := 0; r < n; r++ {
			for peer := 0; peer < n; peer++ {
				if peer == r {
					continue
				}
				j.worlds[r].Recv(peer, int64(round), func(int, int64, []byte) { received++ })
				if err := j.worlds[r].Send(peer, int64(round), make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	j.cl.Eng.Run()
	if want := concurrent * n * (n - 1); received != want {
		t.Fatalf("received %d of %d", received, want)
	}
	if j.cl.Stats.CounterValue("core.aggregates") == 0 {
		t.Fatal("all-to-all exchange produced no aggregation")
	}
}

// TestAllocsSend pins what one matched Send costs end to end on the
// simulated cluster (send, wire, assembly, match). Its 16-byte send_SAFER
// header is captured inside the mad.Message, not copied to the heap.
func TestAllocsSend(t *testing.T) {
	j := newJob(t, 2)
	data := make([]byte, 256)
	got := 0
	recv := func(int, int64, []byte) { got++ }
	send := func() {
		j.worlds[1].Recv(0, 7, recv)
		if err := j.worlds[0].Send(1, 7, data); err != nil {
			t.Fatal(err)
		}
		j.cl.Eng.Run()
	}
	for i := 0; i < 64; i++ {
		send() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(200, send); allocs > 23 {
		t.Fatalf("a send costs %.0f allocs, budget is 23 (24 with the header copied to the heap, 35 before inline fragment storage)", allocs)
	}
	if got != 64+201 {
		t.Fatalf("matched %d receives, want %d", got, 64+201)
	}
}
