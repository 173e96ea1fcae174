package exp

import (
	"fmt"

	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/workload"
)

// E1 — the paper's headline claim (§4): "the aggregation of eager segments
// collected from several independent communication flows brings huge
// performance gains" over the previous, deterministic per-flow Madeleine.
//
// Workload: F independent flows on one node, each sending a stream of
// small eager messages to the same peer, back to back. Strategies
// compared: fifo (previous Madeleine), aggregate-intraflow (aggregation
// without flow mixing), aggregate (the new engine). Reported per flow
// count: network transactions, completion time, message rate, mean
// latency, and the speedup of the new engine over the baseline.

func e1Shape(cfg Config) (perFlow int, flowCounts []int) {
	if cfg.Quick {
		return 16, []int{1, 4, 8}
	}
	return 64, []int{1, 2, 4, 8, 16}
}

// e1Point runs one (bundle, flows) cell. Per-flow arrivals are moderate
// Poisson streams: an individual flow rarely has two packets waiting at
// once, so aggregation material exists only *across* flows — the exact
// situation §4's claim is about. (Back-to-back arrivals would let a flow
// aggregate with itself and hide the cross-flow effect.)
func e1Point(bundle string, flows int, cfg Config) Metrics {
	perFlow, _ := e1Shape(cfg)
	m, _ := run(Point{
		RigOptions: RigOptions{ID: "E1", Bundle: bundle},
		Flows: Fan(flows, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size:    workload.Fixed(64),
			Arrival: workload.Poisson{Mean: 4 * simnet.Microsecond},
			Count:   perFlow,
		}),
	}, cfg)
	return m
}

func runE1(cfg Config) []*stats.Table {
	_, flowCounts := e1Shape(cfg)
	t := stats.NewTable("E1 — cross-flow eager aggregation (MX, 64 B messages)",
		"flows", "strategy", "frames", "time(µs)", "msg/s", "meanLat(µs)", "speedup")
	t.Caption = "speedup = fifo completion time / strategy completion time, same workload"
	for _, flows := range flowCounts {
		base := e1Point("fifo", flows, cfg)
		for _, bundle := range []string{"fifo", "aggregate-intraflow", "aggregate"} {
			m := e1Point(bundle, flows, cfg)
			t.AddRowf(flows, bundle, m.Frames, m.EndUs(), m.MsgPerSec, m.MeanLatUs,
				fmt.Sprintf("%.2fx", float64(base.End)/float64(m.End)))
		}
	}
	return []*stats.Table{t}
}

// E1Speedup exposes the headline number for tests: the aggregate-engine
// speedup over fifo at the given flow count.
func E1Speedup(flows int, cfg Config) float64 {
	return float64(e1Point("fifo", flows, cfg).End) / float64(e1Point("aggregate", flows, cfg).End)
}
