package minimpi

import (
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestCollectivesOverRealSockets runs the MPI middleware over the real TCP
// mesh driver: the whole stack — packing API, optimizer, protocol
// engines, wire codec — in wall-clock time with concurrent goroutine
// upcalls. A barrier plus an allreduce across three endpoints is a
// complete correctness workout: tag matching, ordered flows, collective
// trees and bidirectional traffic all at once.
func TestCollectivesOverRealSockets(t *testing.T) {
	const n = 3
	nodes, cleanup, err := drivers.NewMeshCluster(n, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rt := simnet.NewRealRuntime()

	worlds := make([]*World, n)
	for i := 0; i < n; i++ {
		node := packet.NodeID(i)
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		s, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return core.New(node, core.Options{
				Bundle:     b,
				Runtime:    rt,
				Rails:      []drivers.Driver{nodes[i]},
				Deliver:    deliver,
				NagleDelay: simnet.FromWall(100 * time.Microsecond),
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(s, n)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}

	// Barrier, then allreduce, chained per rank; all ranks report results.
	type result struct {
		rank int
		vec  []int64
	}
	results := make(chan result, n)
	for r := 0; r < n; r++ {
		r := r
		go func() {
			worlds[r].Barrier(func() {
				worlds[r].Allreduce([]int64{int64(r + 1)}, OpSum, func(vec []int64) {
					results <- result{r, vec}
				})
			})
		}()
	}

	want := int64(1 + 2 + 3)
	seen := 0
	for seen < n {
		select {
		case res := <-results:
			if len(res.vec) != 1 || res.vec[0] != want {
				t.Fatalf("rank %d allreduce = %v, want [%d]", res.rank, res.vec, want)
			}
			seen++
		case <-time.After(20 * time.Second):
			t.Fatalf("collectives stalled with %d of %d results", seen, n)
		}
	}
}
