// Package trace is the engine's flight recorder: a bounded ring of typed
// events that reconstructs what the optimizer did and why — which packets
// waited, what each idle upcall pulled, how frames were composed — without
// perturbing the simulation (recording is allocation-light and reading is
// offline).
//
// A Recorder is optional: engines run with a nil recorder by default, and
// every Record call on a nil recorder is a no-op, so tracing costs nothing
// unless requested (madsim -trace, tests, debugging sessions).
package trace

import (
	"fmt"
	"strings"
	"sync"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Kind classifies events.
type Kind uint8

// Event kinds, in rough lifecycle order of a packet.
const (
	// KindSubmit: a packet entered the waiting list.
	KindSubmit Kind = iota
	// KindNagleArm: a submission armed the artificial delay.
	KindNagleArm
	// KindNagleFire: the delay expired and triggered a pump.
	KindNagleFire
	// KindIdle: a send channel became idle (the optimizer trigger).
	KindIdle
	// KindPlan: the strategy composed a frame from the backlog.
	KindPlan
	// KindPost: a frame was handed to a driver channel.
	KindPost
	// KindRecv: a frame arrived from the fabric.
	KindRecv
	// KindDeliver: a packet was delivered in order to the upper layer.
	KindDeliver
	// KindRdv: a rendezvous protocol step (start/grant).
	KindRdv
	// KindPolicy: the strategy bundle was switched at runtime.
	KindPolicy
	// KindFault: a failure event — a peer went down, frames were reclaimed
	// from a dead connection, a rendezvous timed out and retried, or the
	// chaos layer injected a fault.
	KindFault
)

// String returns the event mnemonic.
func (k Kind) String() string {
	names := [...]string{"SUBMIT", "NAGLE+", "NAGLE!", "IDLE", "PLAN", "POST", "RECV", "DELIVER", "RDV", "POLICY", "FAULT"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   simnet.Time
	Kind Kind
	Node packet.NodeID
	// Flow/Seq identify the subject packet when applicable.
	Flow packet.FlowID
	Seq  int
	// A and B carry kind-specific integers (rail/channel, frame sizes,
	// packet counts, budgets) as documented per recording site.
	A, B int
	// Note is a short free-form annotation.
	Note string
}

// String renders one line of trace.
func (e Event) String() string {
	subject := ""
	if e.Flow != 0 || e.Seq != 0 {
		subject = fmt.Sprintf(" f%d/#%d", e.Flow, e.Seq)
	}
	note := ""
	if e.Note != "" {
		note = " " + e.Note
	}
	return fmt.Sprintf("%12v n%d %-8s%s a=%d b=%d%s", e.At, e.Node, e.Kind, subject, e.A, e.B, note)
}

// Recorder is a fixed-capacity ring of events. The zero value is unusable;
// create with New. All methods are safe for concurrent use (the socket
// driver records from several goroutines). A nil *Recorder ignores all
// calls.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
}

// New returns a recorder keeping the last capacity events (min 16).
func New(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Record appends an event, evicting the oldest beyond capacity.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%uint64(cap(r.buf))] = e
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	c := uint64(cap(r.buf))
	start := r.next % c
	for i := uint64(0); i < c; i++ {
		out = append(out, r.buf[(start+i)%c])
	}
	return out
}

// Dump renders the retained events as a timeline.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
