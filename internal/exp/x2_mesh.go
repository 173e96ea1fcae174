package exp

import (
	"fmt"
	"time"

	"newmad/internal/caps"
	"newmad/internal/cluster"
	"newmad/internal/packet"
	"newmad/internal/stats"
)

// X2 — mesh addendum (not a claim of the paper; added with the multi-node
// TCP mesh transport).
//
// The reproduction's other experiments run the optimizer against simulated
// NICs in virtual time. X2 runs the *same engine and the same all-to-all
// workload* twice: once on the simulated TCP fabric (the virtual-time
// prediction) and once over real mesh sockets between N full Figure-1
// stacks (the wall-clock measurement). The transaction accounting — how
// many frames the optimizer posts for the workload — is the quantity the
// model is supposed to predict; completion time differs by construction,
// since the simulated profile models a 2006 gigabit stack while the real
// mesh runs over the host's loopback device.

// X2Result is one substrate's outcome for the shared workload.
type X2Result struct {
	Nodes int
	Msgs  int
	Bytes int
	// Frames is the total number of frames the optimizers posted.
	Frames uint64
	// Completion is virtual time for the simulated run, wall-clock time for
	// the mesh run.
	Completion time.Duration
}

func x2Shape(cfg Config) (nodes, perFlow, size int) {
	if cfg.Quick {
		return 3, 30, 512
	}
	return 4, 200, 512
}

// x2Packet is one packet of the all-to-all raw-packet workload: every
// ordered (src, dst) pair carries one flow of perFlow packets.
func x2Packet(nodes, seq, size int, src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		Flow: packet.FlowID(uint32(src)*uint32(nodes) + uint32(dst) + 1), Msg: 1, Seq: seq,
		Src: src, Dst: dst,
		Class: packet.ClassSmall, Payload: make([]byte, size),
	}
}

// x2Workload is the result skeleton both substrates fill in: the workload's
// size, before frames and completion are measured.
func x2Workload(cfg Config) X2Result {
	nodes, perFlow, size := x2Shape(cfg)
	total := nodes * (nodes - 1) * perFlow
	return X2Result{Nodes: nodes, Msgs: total, Bytes: total * size}
}

// X2Sim runs the workload on the simulated TCP fabric and reports the
// virtual-time prediction.
func X2Sim(cfg Config) (X2Result, error) {
	nodes, perFlow, size := x2Shape(cfg)
	rig, err := NewRig(RigOptions{ID: "X2", Nodes: nodes, Profiles: []caps.Caps{caps.TCP}})
	if err != nil {
		return X2Result{}, err
	}
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			for q := 0; q < perFlow; q++ {
				p := x2Packet(nodes, q, size, packet.NodeID(s), packet.NodeID(d))
				if err := rig.Engines[packet.NodeID(s)].Submit(p); err != nil {
					return X2Result{}, err
				}
			}
		}
	}
	res := x2Workload(cfg)
	m, err := rig.Run(res.Msgs)
	if err != nil {
		return X2Result{}, err
	}
	res.Frames, res.Completion = rig.Cl.Stats.CounterValue("core.frames_posted"), time.Duration(m.End)
	return res, nil
}

// X2Mesh runs the workload over real TCP mesh sockets and reports the
// wall-clock measurement.
func X2Mesh(cfg Config) (X2Result, error) {
	nodes, perFlow, size := x2Shape(cfg)
	rig, err := newMeshRig(cluster.Options{Nodes: nodes})
	if err != nil {
		return X2Result{}, err
	}
	defer rig.Close()

	start := time.Now()
	if err := eachNode(nodes, func(src packet.NodeID) error {
		eng := rig.Engine(src)
		defer eng.Flush()
		for q := 0; q < perFlow; q++ {
			for d := 0; d < nodes; d++ {
				if dst := packet.NodeID(d); dst != src {
					if err := eng.Submit(x2Packet(nodes, q, size, src, dst)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})(); err != nil {
		return X2Result{}, err
	}
	res := x2Workload(cfg)
	if err := rig.wait(res.Msgs, 60*time.Second); err != nil {
		return X2Result{}, err
	}
	res.Frames, res.Completion = rig.counter("core.frames_posted"), time.Since(start)
	return res, nil
}

func runX2(cfg Config) []*stats.Table {
	sim, mesh := must(X2Sim(cfg)), must(X2Mesh(cfg))
	t := stats.NewTable(
		fmt.Sprintf("X2 — all-to-all on %d nodes, 512 B messages: simulated TCP vs real mesh sockets", sim.Nodes),
		"substrate", "time base", "msgs", "frames", "pkts/frame", "time(ms)", "goodput(MB/s)")
	t.Caption = "frames measure the optimizer's transaction accounting; sim time models a 2006 gigabit stack, mesh time is the host's loopback"
	add := func(name, base string, r X2Result) {
		secs := r.Completion.Seconds()
		t.AddRowf(name, base, r.Msgs, r.Frames, float64(r.Msgs)/float64(r.Frames),
			secs*1e3, float64(r.Bytes)/secs/1e6)
	}
	add("sim-tcp", "virtual", sim)
	add("mesh-tcp", "wall", mesh)
	return []*stats.Table{t}
}
