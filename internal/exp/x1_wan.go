package exp

import (
	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/workload"
)

// X1 — WAN addendum (not a claim of the paper; added per the reproduction
// brief's note that an emulated WAN substrate was expected).
//
// The same engine runs unmodified over the emulated wide-area profile
// (5 ms one-way latency, 100 MB/s): per-request overhead is now dominated
// by the path RTT, so batching small application messages into few large
// frames — the GridFTP/bbcp-style concern of the mid-2000s — is where the
// engine's aggregation pays most. This experiment sweeps concurrent
// streams and compares per-message FIFO against the aggregating engine on
// a WAN path.

// x1Size is the message size. Small messages: the regime where per-frame
// fixed costs (~22 µs of stack overhead plus header tax) dwarf the 5 µs of
// payload serialization, so transaction amortization is what sets goodput.
const x1Size = 512

func x1Shape(cfg Config) (perFlow int, flowCounts []int) {
	if cfg.Quick {
		return 30, []int{1, 8}
	}
	return 100, []int{1, 4, 16}
}

// x1Point runs one (bundle, flows) cell and adds its goodput in MB/s.
func x1Point(bundle string, flows int, cfg Config) (Metrics, float64) {
	perFlow, _ := x1Shape(cfg)
	wan := caps.WAN
	wan.Channels = 2
	m, _ := run(Point{
		RigOptions: RigOptions{ID: "X1", Bundle: bundle, Profiles: []caps.Caps{wan}},
		Flows: Fan(flows, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size:    workload.Fixed(x1Size),
			Arrival: workload.Poisson{Mean: 20 * simnet.Microsecond},
			Count:   perFlow,
		}),
	}, cfg)
	return m, float64(flows*perFlow*x1Size) / (float64(m.End) / 1e9) / 1e6
}

func runX1(cfg Config) []*stats.Table {
	_, flowCounts := x1Shape(cfg)
	t := stats.NewTable("X1 — WAN path (5 ms one-way, 100 MB/s), 512 B messages",
		"flows", "strategy", "frames", "time(ms)", "goodput(MB/s)", "meanLat(ms)")
	t.Caption = "small messages over a WAN: per-frame overhead dominates; aggregation amortizes it"
	for _, flows := range flowCounts {
		for _, bundle := range []string{"fifo", "aggregate"} {
			m, goodput := x1Point(bundle, flows, cfg)
			t.AddRowf(flows, bundle, m.Frames, float64(m.End)/1e6, goodput, m.MeanLatUs/1000)
		}
	}
	return []*stats.Table{t}
}

// X1Goodput exposes goodput for the shape test.
func X1Goodput(bundle string, flows int, cfg Config) float64 {
	_, goodput := x1Point(bundle, flows, cfg)
	return goodput
}
