package exp

import (
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E3 — §3: when the NIC never stays busy long enough for a backlog to
// accumulate, the scheduler "may artificially delay [packets] for a short
// time to increase the potential of interesting aggregations (in a TCP
// Nagle's algorithm fashion)."
//
// Workload: sparse Poisson arrivals from several flows — each packet would
// normally be sent alone. Sweeping the artificial delay exposes the
// latency-versus-transactions trade-off: more delay, fewer frames, higher
// mean latency.

func e3Shape(cfg Config) (flows, perFlow int, delaysUs []int) {
	if cfg.Quick {
		return 4, 16, []int{0, 8, 32}
	}
	return 6, 50, []int{0, 2, 4, 8, 16, 32}
}

// E3Point exposes one sweep cell for tests.
func E3Point(delay simnet.Duration, cfg Config) Metrics {
	flows, perFlow, _ := e3Shape(cfg)
	m, _ := run(Point{
		RigOptions: RigOptions{
			ID: "E3",
			// A flush count of 16 relies on the timer, not backlog pressure.
			Knobs: strategy.Knobs{NagleDelay: delay, NagleFlushCount: 16},
		},
		Flows: Fan(flows, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size:    workload.Fixed(64),
			Arrival: workload.Poisson{Mean: 10 * simnet.Microsecond},
			Count:   perFlow,
		}),
	}, cfg)
	return m
}

func runE3(cfg Config) []*stats.Table {
	_, _, delaysUs := e3Shape(cfg)
	t := stats.NewTable("E3 — Nagle delay sweep (sparse Poisson traffic, MX)",
		"delay(µs)", "frames", "pkts/frame", "meanLat(µs)", "p99Lat(µs)", "msg/s")
	t.Caption = "frames fall and latency rises with delay; the knee is the tuning point"
	for _, us := range delaysUs {
		d := simnet.Duration(us) * simnet.Microsecond
		m := E3Point(d, cfg)
		t.AddRowf(d.Micros(), m.Frames, m.PerFrame(), m.MeanLatUs, m.P99LatUs, m.MsgPerSec)
	}
	return []*stats.Table{t}
}
