package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestDriversClosedUnderTraffic closes the rails out from under live engines
// a few hundred times, the way a test's deferred cleanup or a cluster's
// shutdown does: submitters and idle upcalls are mid-pump when Post starts
// answering drivers.ErrClosed. The engine must drop those frames quietly —
// it used to panic ("post on … failed: drivers: … closed"), about one
// `go test ./internal/core` run in four. Eager and rendezvous traffic in
// the mix.
func TestDriversClosedUnderTraffic(t *testing.T) {
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	t.Run("mesh", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			closeUnderTraffic(t)
		}
	})
}

func closeUnderTraffic(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	rt := simnet.NewRealRuntime()
	const window = 32 // packets each submitter keeps in flight
	var (
		delivered [2]atomic.Int64 // by receiving node
		flowing   = make(chan struct{})
		once      sync.Once
		engines   [2]*Engine
	)
	for n := range engines {
		n := n
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		engines[n], err = New(packet.NodeID(n), Options{
			Bundle: b, Runtime: rt, Rails: []drivers.Driver{nodes[n]},
			Deliver: func(proto.Deliverable) {
				if delivered[n].Add(1) == 4*window {
					once.Do(func() { close(flowing) }) // traffic is well under way: close now
				}
			},
			Knobs: strategy.Knobs{RdvThreshold: 1 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	submit := func(n, seq int) {
		size := 64
		if seq%4 == 3 {
			size = 4 << 10 // rendezvous
		}
		p := &packet.Packet{
			Flow: packet.FlowID(n + 1), Msg: 1, Seq: seq,
			Src: packet.NodeID(n), Dst: packet.NodeID(1 - n),
			Class: packet.ClassSmall, Payload: make([]byte, size),
		}
		if err := engines[n].Submit(p); err != nil {
			t.Error(err)
		}
	}
	stop := make(chan struct{})
	var sent [2]int
	var wg sync.WaitGroup
	for n := range engines {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if int64(sent[n])-delivered[1-n].Load() >= window {
					runtime.Gosched()
					continue
				}
				submit(n, sent[n])
				sent[n]++
			}
		}()
	}
	<-flowing
	cleanup() // rails close with pumps and rail owners mid-frame
	close(stop)
	wg.Wait()
	for n, e := range engines {
		submit(n, sent[n]) // and a Submit that finds the rails already gone
		e.Close()
	}
}
