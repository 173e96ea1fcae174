package core

import (
	"fmt"

	"newmad/internal/stats"
)

// The engine's latency-span taxonomy: each span measures one leg of the
// packet lifecycle the trace ring already marks (SUBMIT → PLAN → POST →
// RECV → DELIVER, plus the rendezvous handshake), folded into sharded
// histograms keyed by (span, class, rail). Spans are always on — the
// observation is integer index math plus one histogram insert under a
// per-cell lock (bit arithmetic into the cell's flat bucket slice, which
// allocates only while the cell's value range widens), cheap enough that
// the AllocsPerRun gates of internal/perf hold with telemetry enabled
// (DESIGN.md §8).

// SpanKind identifies one lifecycle leg.
type SpanKind uint8

const (
	// SpanQueueWait: submit → plan. How long a packet waited in the
	// backlog before the optimizer pulled it into a frame — the paper's
	// lookahead-pool dwell time. Rail = the rail the plan was built for.
	SpanQueueWait SpanKind = iota
	// SpanE2E: submit → in-order delivery at the receiver, the
	// application-visible latency. Rail = the arrival rail of the frame
	// that completed the packet (0 when delivery had no rail context).
	// Measurable only where the stamp crosses with the entry: the
	// simulated NIC copies it onto the frame it lands. Entries decoded
	// from a socket — localhost included — carry no submit stamp and are
	// skipped.
	SpanE2E
	// SpanXmit: post → receive, the fabric's serialization + transit leg
	// for one frame. Stamped at post time, carried across by the simulated
	// NIC; frames decoded from a socket carry none and are skipped. Rail =
	// the arrival rail; class = the frame's scheduling class.
	SpanXmit
	// SpanRdvGrant: RTS queued → CTS arrival, the sender-side rendezvous
	// handshake wait (includes any retries). Rail = the CTS arrival rail.
	SpanRdvGrant
	// SpanRdvData: grant (the CTS answering an RTS) → RData arrival on the
	// receiver — how long a granted transfer took to deliver its bulk,
	// matched by (source, token). Rail = the RData arrival rail.
	SpanRdvData
	// NumSpanKinds sizes span-indexed arrays.
	NumSpanKinds
)

// String returns the span mnemonic used in exposition (snapshot JSON and
// Prometheus metric names).
func (k SpanKind) String() string {
	names := [...]string{"queue_wait", "e2e", "xmit", "rdv_grant", "rdv_data"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// Spans returns the engine's latency-span family: one histogram per
// (SpanKind, packet.ClassID, rail index) cell. The family is internally
// locked per cell, so scraping it is safe against the live datapath.
func (e *Engine) Spans() *stats.Spans { return e.spans }
