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
// (X2's mesh half, X3, X4, X5): a booted cluster.Cluster plus a count of
// the deliveries the experiment is waiting for.
type meshRig struct {
	*cluster.Cluster
	delivered atomic.Int64
	want      atomic.Int64 // wait's target; deliveries at or past it signal done
	done      chan struct{}
}

// newMeshRig boots the cluster o describes in Raw mode (the experiments'
// synthetic flow ids are not mad channels). counts, when non-nil, selects
// the deliveries that count toward wait and may record them; it runs on
// transport goroutines.
func newMeshRig(o cluster.Options, counts func(node packet.NodeID, d proto.Deliverable) bool) (*meshRig, error) {
	r := &meshRig{done: make(chan struct{}, 1)}
	r.want.Store(1 << 62)
	o.Raw = true
	o.OnDeliver = func(node packet.NodeID, d proto.Deliverable) {
		if counts != nil && !counts(node, d) {
			return
		}
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

// conglomerate is the wall-clock workload X4 and X5 share: between nodes 0
// and 1, in both directions, a stream of small messages (flow 10+src)
// interleaved with large rendezvous transfers (flow 20+src).
type conglomerate struct {
	smallMsgs, smallSize, bulkMsgs, bulkSize int
}

// msgs and bytes total the payloads of both directions.
func (w conglomerate) msgs() int  { return 2 * (w.smallMsgs + w.bulkMsgs) }
func (w conglomerate) bytes() int { return 2 * (w.smallMsgs*w.smallSize + w.bulkMsgs*w.bulkSize) }

// start launches both directions and returns their eachNode wait. The
// submitters interleave a few small messages between each bulk submission,
// so the engine always sees the conglomerate, not two phases; pace, when
// positive, sleeps between rounds so the traffic spans a fault schedule
// instead of draining ahead of it.
func (w conglomerate) start(c *cluster.Cluster, pace time.Duration) (wait func() error) {
	return eachNode(2, func(src packet.NodeID) error {
		eng, dst := c.Engine(src), 1-src
		smallFlow, bulkFlow := packet.FlowID(10+src), packet.FlowID(20+src)
		si, bi := 0, 0
		for si < w.smallMsgs || bi < w.bulkMsgs {
			for k := 0; k < w.smallMsgs/max(w.bulkMsgs, 1)+1 && si < w.smallMsgs; k++ {
				if err := eng.Submit(message(smallFlow, si, w.smallSize, src, dst)); err != nil {
					return err
				}
				si++
			}
			if bi < w.bulkMsgs {
				if err := eng.Submit(message(bulkFlow, bi, w.bulkSize, src, dst)); err != nil {
					return err
				}
				bi++
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
		eng.Flush()
		return nil
	})
}
