package cluster

import (
	"newmad/internal/core"
	"newmad/internal/packet"
)

// Conglomerate is the wall-clock workload of the chaos scenario and of
// exp's X4: between nodes 0 and 1, in both directions, a stream of small
// messages (flow 10+src) interleaved with large rendezvous transfers
// (flow 20+src).
type Conglomerate struct {
	SmallMsgs, SmallSize, BulkMsgs, BulkSize int
}

// Msgs and Bytes total the payloads of both directions.
func (w Conglomerate) Msgs() int { return 2 * (w.SmallMsgs + w.BulkMsgs) }
func (w Conglomerate) Bytes() int {
	return 2 * (w.SmallMsgs*w.SmallSize + w.BulkMsgs*w.BulkSize)
}

// Start launches both directions, one submitter goroutine each, and
// returns a wait for both that reports the first Submit error. A submitter
// interleaves a few small messages between each bulk submission, so the
// engine always sees the conglomerate, not two phases.
func (w Conglomerate) Start(c *Cluster) (wait func() error) {
	errs := make(chan error, 2)
	for src := packet.NodeID(0); src < 2; src++ {
		go func() { errs <- w.submit(c.Engine(src), src, 1-src) }()
	}
	return func() error {
		err := <-errs
		if err2 := <-errs; err == nil {
			err = err2
		}
		return err
	}
}

// submit runs one direction of the workload on eng, then flushes it.
func (w Conglomerate) submit(eng *core.Engine, src, dst packet.NodeID) error {
	send := func(flow packet.FlowID, seq, size int) error {
		return eng.Submit(&packet.Packet{
			Flow: flow, Msg: packet.MsgID(seq), Seq: seq, Last: true,
			Src: src, Dst: dst, Class: packet.ClassSmall,
			Payload: make([]byte, size),
		})
	}
	smallFlow, bulkFlow := packet.FlowID(10+src), packet.FlowID(20+src)
	si, bi := 0, 0
	for si < w.SmallMsgs || bi < w.BulkMsgs {
		for k := 0; k < w.SmallMsgs/max(w.BulkMsgs, 1)+1 && si < w.SmallMsgs; k++ {
			if err := send(smallFlow, si, w.SmallSize); err != nil {
				return err
			}
			si++
		}
		if bi < w.BulkMsgs {
			if err := send(bulkFlow, bi, w.BulkSize); err != nil {
				return err
			}
			bi++
		}
	}
	eng.Flush()
	return nil
}
