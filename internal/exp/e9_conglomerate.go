package exp

import (
	"fmt"

	"newmad/internal/middleware/minidsm"
	"newmad/internal/middleware/minimpi"
	"newmad/internal/middleware/minirpc"
	"newmad/internal/packet"
	"newmad/internal/stats"
)

// E9 — §1–2: "today's parallel applications tend to use complex
// conglomerates of multiple communication middlewares ... increasing the
// number of concurrent communication flows between processing nodes."
//
// Three real middlewares run concurrently on the same four nodes: an
// MPI-style halo exchange with barriers, an RPC request storm, and DSM
// page traffic. The optimizer sees their flows together; the baseline
// handles each deterministically. The conglomerate is where cross-flow
// optimization pays: none of the middlewares alone changes its code.

func e9Shape(cfg Config) (iters, calls int) {
	if cfg.Quick {
		return 4, 10
	}
	return 12, 40
}

func e9Point(bundle string, cfg Config) (Metrics, error) {
	const nodes = 4
	iters, calls := e9Shape(cfg)
	rig, err := NewRig(RigOptions{
		ID:           "E9",
		Nodes:        nodes,
		Bundle:       bundle,
		WithSessions: true,
	})
	if err != nil {
		return Metrics{}, err
	}
	// Build the middleware stack on every node, same creation order.
	worlds := make([]*minimpi.World, nodes)
	rpcs := make([]*minirpc.Peer, nodes)
	dsms := make([]*minidsm.DSM, nodes)
	for n := 0; n < nodes; n++ {
		w, err := minimpi.New(rig.Sessions[packet.NodeID(n)], nodes)
		if err != nil {
			return Metrics{}, err
		}
		worlds[n] = w
		rpcs[n] = minirpc.New(rig.Sessions[packet.NodeID(n)])
		d, err := minidsm.New(rig.Sessions[packet.NodeID(n)], nodes, 8, 4096)
		if err != nil {
			return Metrics{}, err
		}
		dsms[n] = d
	}

	rpcCalls, haloIter := 0, 0

	// --- MPI: iterated ring halo exchange with a barrier per iteration.
	var iterate func(rank, iter int)
	iterate = func(rank, iter int) {
		if iter >= iters {
			return
		}
		w := worlds[rank]
		right := (rank + 1) % nodes
		left := (rank - 1 + nodes) % nodes
		got := 0
		recvBoth := func(int, int64, []byte) {
			got++
			if got == 2 {
				w.Barrier(func() {
					if rank == 0 {
						haloIter++
					}
					iterate(rank, iter+1)
				})
			}
		}
		w.Recv(left, int64(1000+iter), recvBoth)
		w.Recv(right, int64(2000+iter), recvBoth)
		if err := w.Send(right, int64(1000+iter), make([]byte, 1024)); err != nil {
			panic(err)
		}
		if err := w.Send(left, int64(2000+iter), make([]byte, 1024)); err != nil {
			panic(err)
		}
	}

	// --- RPC: node 1 serves; nodes 2,3 fire storms of small calls.
	rpcs[1].Register("work", func(_ packet.NodeID, args []byte) []byte {
		return append(args, 0xFF)
	})
	fire := func(client int) {
		var next func(i int)
		next = func(i int) {
			if i >= calls {
				return
			}
			rpcs[client].Call(1, "work", []byte{byte(i)}, func(resp []byte, err error) {
				if err != nil {
					panic(err)
				}
				rpcCalls++
				next(i + 1)
			})
		}
		next(0)
	}

	// --- DSM: node 3 writes pages, nodes 0 and 2 read them.
	dsmOps := 0
	var churn func(i int)
	churn = func(i int) {
		if i >= iters*2 {
			return
		}
		page := i % 8
		if err := dsms[3].Write(page, 0, []byte{byte(i)}, func() {
			dsmOps++
			_ = dsms[0].Read(page, func([]byte) {
				_ = dsms[2].Read(page, func([]byte) { churn(i + 1) })
			})
		}); err != nil {
			panic(err)
		}
	}

	// Kick everything off at t=0.
	rig.Cl.Eng.At(0, "e9.start", func() {
		for r := 0; r < nodes; r++ {
			iterate(r, 0)
		}
		fire(2)
		fire(3)
		churn(0)
	})

	m, err := rig.Run(0) // delivery count varies; completion is the metric
	if err != nil {
		return Metrics{}, err
	}
	if haloIter != iters {
		return Metrics{}, fmt.Errorf("halo iterations %d of %d", haloIter, iters)
	}
	if rpcCalls != 2*calls {
		return Metrics{}, fmt.Errorf("rpc calls %d of %d", rpcCalls, 2*calls)
	}
	return m, nil
}

func runE9(cfg Config) []*stats.Table {
	t := stats.NewTable("E9 — MPI halo + RPC storm + DSM churn on 4 nodes (MX)",
		"strategy", "time(µs)", "frames", "aggregates", "speedup")
	t.Caption = "identical middleware workload; only the engine's strategy bundle differs"
	base := must(e9Point("fifo", cfg))
	for _, bundle := range []string{"fifo", "aggregate"} {
		m := must(e9Point(bundle, cfg))
		t.AddRowf(bundle, m.EndUs(), m.Frames, m.Aggregates,
			fmt.Sprintf("%.2fx", float64(base.End)/float64(m.End)))
	}
	return []*stats.Table{t}
}

// E9Times returns (fifo, aggregate) completion times for the shape test.
func E9Times(cfg Config) (fifo, aggregate float64) {
	return float64(must(e9Point("fifo", cfg)).End), float64(must(e9Point("aggregate", cfg)).End)
}
