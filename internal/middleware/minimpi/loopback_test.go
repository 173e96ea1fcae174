package minimpi

import (
	"sync"
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
// upcalls. A barrier plus an all-to-all exchange of tagged sends across
// three endpoints is a complete correctness workout: tag matching, ordered
// flows, the dissemination rounds and bidirectional traffic all at once.
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
				Bundle:  b,
				Runtime: rt,
				Rails:   []drivers.Driver{nodes[i]},
				Deliver: deliver,
				Knobs:   strategy.Knobs{NagleDelay: simnet.FromWall(100 * time.Microsecond)},
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

	// Barrier, then every rank sends its number to every other rank and
	// sums what it receives, chained per rank; all ranks report results.
	const tag = 7
	type result struct {
		rank int
		sum  int
	}
	results := make(chan result, n)
	for r := 0; r < n; r++ {
		r := r
		go func() {
			worlds[r].Barrier(func() {
				var mu sync.Mutex
				sum, got := r+1, 0
				for peer := 0; peer < n; peer++ {
					if peer == r {
						continue
					}
					worlds[r].Recv(peer, tag, func(_ int, _ int64, data []byte) {
						mu.Lock()
						sum += int(data[0])
						got++
						total, done := sum, got == n-1
						mu.Unlock()
						if done {
							results <- result{r, total}
						}
					})
					if err := worlds[r].Send(peer, tag, []byte{byte(r + 1)}); err != nil {
						t.Error(err)
					}
				}
			})
		}()
	}

	const want = 1 + 2 + 3
	seen := 0
	for seen < n {
		select {
		case res := <-results:
			if res.sum != want {
				t.Fatalf("rank %d summed %d, want %d", res.rank, res.sum, want)
			}
			seen++
		case <-time.After(20 * time.Second):
			t.Fatalf("collectives stalled with %d of %d results", seen, n)
		}
	}
}
