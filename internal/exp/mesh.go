package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/cluster"
	"newmad/internal/packet"
	"newmad/internal/proto"
)

// meshRig is the wall-clock counterpart of Rig for the socket experiments
// (X2's mesh half, X4): a booted cluster.Cluster plus a count of the
// deliveries the experiment is waiting for.
type meshRig struct {
	*cluster.Cluster
	delivered atomic.Int64
	want      atomic.Int64 // wait's target; deliveries at or past it signal done
	done      chan struct{}
}

// newMeshRig boots the cluster o describes in Raw mode (the experiments'
// synthetic flow ids are not mad channels), counting every delivery.
func newMeshRig(o cluster.Options) (*meshRig, error) {
	r := &meshRig{done: make(chan struct{}, 1)}
	r.want.Store(1 << 62)
	o.Raw = true
	o.OnDeliver = func(packet.NodeID, proto.Deliverable) {
		if r.delivered.Add(1) >= r.want.Load() {
			select {
			case r.done <- struct{}{}:
			default:
			}
		}
	}
	c, err := cluster.New(o)
	if err != nil {
		return nil, err
	}
	r.Cluster = c
	return r, nil
}

// wait blocks until total deliveries were counted, or fails after timeout.
func (r *meshRig) wait(total int, timeout time.Duration) error {
	r.want.Store(int64(total))
	for deadline := time.After(timeout); r.delivered.Load() < int64(total); {
		select {
		case <-r.done:
		case <-deadline:
			return fmt.Errorf("exp: incomplete after %v, %d of %d delivered", timeout, r.delivered.Load(), total)
		}
	}
	return nil
}

// counter sums one core.* counter over every node of the mesh.
func (r *meshRig) counter(name string) (n uint64) {
	for _, node := range r.Nodes {
		n += node.Stats.CounterValue(name)
	}
	return n
}

// eachNode runs fn(0..n-1) on one goroutine each and returns a function
// that waits for all of them and reports the first error.
func eachNode(n int, fn func(node packet.NodeID) error) (wait func() error) {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(packet.NodeID(i)); err != nil {
				errs <- err
			}
		}()
	}
	return func() error {
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}
}
