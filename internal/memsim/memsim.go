// Package memsim models the host-memory costs that shape communication
// optimization decisions: copying (for by-copy aggregation and eager
// buffering) and building gather descriptors.
//
// The optimizer's central trade-off — aggregate several small packets into
// one network transaction versus send them separately — is only meaningful
// when the cost of building the aggregate is accounted for. On hardware with
// gather/scatter DMA the cost is a few descriptor writes; without it the
// payload must be memcpy'd into a staging buffer first. This package makes
// both costs explicit and deterministic.
package memsim

import (
	"fmt"

	"newmad/internal/simnet"
)

// Model describes one node's memory system.
type Model struct {
	// CopyBandwidth is the sustained memcpy bandwidth in bytes/second
	// (a 2006-era host sustains roughly 1–2 GB/s single-threaded).
	CopyBandwidth float64
	// CopyLatency is the fixed per-copy overhead (function call, cache
	// warmup) added to every copy regardless of size.
	CopyLatency simnet.Duration
}

// DefaultModel returns a host memory model representative of a 2006-era
// Opteron node: ~1.6 GB/s memcpy, 60 ns copy setup.
func DefaultModel() Model {
	return Model{
		CopyBandwidth: 1.6e9,
		CopyLatency:   60 * simnet.Nanosecond,
	}
}

// Validate reports a descriptive error when the model is unusable.
func (m Model) Validate() error {
	if m.CopyBandwidth <= 0 {
		return fmt.Errorf("memsim: CopyBandwidth must be positive, got %v", m.CopyBandwidth)
	}
	if m.CopyLatency < 0 {
		return fmt.Errorf("memsim: negative latency in model %+v", m)
	}
	return nil
}

// CopyCost returns the virtual time needed to memcpy n bytes.
func (m Model) CopyCost(n int) simnet.Duration {
	if n <= 0 {
		return 0
	}
	return m.CopyLatency + simnet.BandwidthTime(n, m.CopyBandwidth)
}

// GatherCost returns the time to build an n-entry gather descriptor list.
// Descriptor writes are cheap but not free; this keeps "gather everything"
// from being a universal win.
func (m Model) GatherCost(entries int) simnet.Duration {
	if entries <= 0 {
		return 0
	}
	return simnet.Duration(entries) * 40 * simnet.Nanosecond
}
