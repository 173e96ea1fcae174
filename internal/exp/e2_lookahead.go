package exp

import (
	"fmt"

	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E2 — the paper's first named future-work study (§4): "experiment with
// different packet lookahead window sizes."
//
// Workload: bursty multi-flow traffic (packets arrive in batches, so a
// backlog exists whenever the NIC goes idle). The lookahead window bounds
// how deep into the waiting list the optimizer may look when composing a
// frame. Small windows forfeit aggregation opportunities; unbounded
// windows maximize them at higher scan cost (measured as wall time).

func e2Shape(cfg Config) (flows, perFlow int, windows []int) {
	if cfg.Quick {
		return 4, 16, []int{1, 4, 0}
	}
	return 8, 48, []int{1, 2, 4, 8, 16, 32, 0}
}

func e2Point(window int, cfg Config) Metrics {
	flows, perFlow, _ := e2Shape(cfg)
	m, _ := run(Point{
		RigOptions: RigOptions{ID: "E2", Knobs: strategy.Knobs{Lookahead: window}},
		Flows: Fan(flows, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size:    workload.Uniform{Lo: 32, Hi: 256},
			Arrival: &workload.Bursts{Size: 8, Gap: 30 * simnet.Microsecond},
			Count:   perFlow,
		}),
	}, cfg)
	return m
}

// wallMs renders a run's host cost for the sweep tables that report it.
func wallMs(m Metrics) float64 { return float64(m.Wall.Microseconds()) / 1000 }

func runE2(cfg Config) []*stats.Table {
	_, _, windows := e2Shape(cfg)
	t := stats.NewTable("E2 — lookahead window sweep (bursty traffic, MX)",
		"window", "frames", "time(µs)", "meanLat(µs)", "p99Lat(µs)", "wall(ms)")
	t.Caption = "window 0 = unbounded; fewer frames and lower completion time indicate better plans"
	for _, w := range windows {
		m := e2Point(w, cfg)
		label := fmt.Sprintf("%d", w)
		if w == 0 {
			label = "∞"
		}
		t.AddRowf(label, m.Frames, m.EndUs(), m.MeanLatUs, m.P99LatUs, wallMs(m))
	}
	return []*stats.Table{t}
}

// E2Frames exposes the frame count for a window (test oracle).
func E2Frames(window int, cfg Config) uint64 { return e2Point(window, cfg).Frames }
