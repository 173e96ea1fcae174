package exp

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/stats"
	"newmad/internal/workload"
)

// E7 — §1: "All these decisions must be consistent with the capabilities
// of the underlying network drivers."
//
// The same aggregation workload runs over four capability profiles:
// MX (16-entry gather), Elan (no gather — aggregation stages through a
// memcpy), IB (4-entry SGE lists) and IB with inline sends (a PIO window).
// The optimizer's behaviour — how many packets per frame, what staging
// cost it pays, where aggregation stops being profitable — follows the
// capability record, not the workload.

func e7Shape(cfg Config) (flows, perFlow int) {
	if cfg.Quick {
		return 4, 12
	}
	return 8, 32
}

func e7Point(prof caps.Caps, size int, cfg Config) Metrics {
	flows, perFlow := e7Shape(cfg)
	m, _ := run(Point{
		RigOptions: RigOptions{ID: "E7", Profiles: []caps.Caps{SingleChannel(prof)}},
		Flows: Fan(flows, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size:    workload.Fixed(size),
			Arrival: workload.BackToBack{},
			Count:   perFlow,
		}),
	}, cfg)
	return m
}

func runE7(cfg Config) []*stats.Table {
	ibInline, _ := caps.Lookup("ib-inline")
	t := stats.NewTable("E7 — capability parameterization (8 flows, back-to-back)",
		"profile", "gather", "msg size", "frames", "pkts/frame", "time(µs)", "meanLat(µs)")
	t.Caption = "gather hardware aggregates via iovecs; Elan stages through a copy; limits cap frame size"
	for _, size := range []int{64, 1024} {
		for _, prof := range []caps.Caps{caps.MX, caps.Elan, caps.IB, ibInline} {
			m := e7Point(prof, size, cfg)
			gather := "copy"
			if prof.Gather() {
				gather = fmt.Sprintf("iov %d", prof.MaxIOV)
			}
			t.AddRowf(prof.Name, gather, fmt.Sprintf("%dB", size),
				m.Frames, m.PerFrame(), m.EndUs(), m.MeanLatUs)
		}
	}
	return []*stats.Table{t}
}

// E7PacketsPerFrame exposes the mean aggregation depth per profile.
func E7PacketsPerFrame(prof caps.Caps, cfg Config) float64 {
	return e7Point(prof, 64, cfg).PerFrame()
}
