package simnet

import (
	"container/heap"
	"fmt"
)

// EventFunc is the body of a scheduled event. It runs with the engine clock
// set to the event's timestamp.
type EventFunc func()

// event is a heap entry. seq breaks timestamp ties so that events scheduled
// earlier run earlier, which keeps the simulation deterministic.
type event struct {
	at       Time
	seq      uint64
	fn       EventFunc
	canceled bool
	label    string
	index    int // heap index, -1 once popped
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid.
type EventID struct{ ev *event }

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is the discrete-event simulation kernel: a clock plus a pending
// event heap. It is not safe for concurrent use; all simulated components
// run on the engine goroutine by construction.
type Engine struct {
	now  Time
	seq  uint64
	heap eventHeap
	// live counts scheduled, not-yet-canceled, not-yet-run events so that
	// Pending is O(1) even with a million-event heap (1000-node fan-out
	// polls it between phases).
	live int
	// Executed counts events that have run, for diagnostics and for the
	// runaway-simulation guard in RunLimit.
	Executed uint64
}

// NewEngine returns an engine at virtual time zero with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now implements Clock.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled, not-yet-canceled events.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and panics; simulated hardware cannot rewrite
// history. The label is used in diagnostics only.
func (e *Engine) At(t Time, label string, fn EventFunc) EventID {
	if t < e.now {
		panic(fmt.Sprintf("simnet: event %q scheduled at %v, before now %v", label, t, e.now))
	}
	if fn == nil {
		panic("simnet: nil event function")
	}
	ev := &event{at: t, seq: e.seq, fn: fn, label: label}
	e.seq++
	heap.Push(&e.heap, ev)
	e.live++
	return EventID{ev}
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, label string, fn EventFunc) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v for event %q", d, label))
	}
	return e.At(e.now.Add(d), label, fn)
}

// Cancel prevents a scheduled event from running. Canceling an already-run
// or already-canceled event is a no-op. It reports whether the event was
// actually descheduled by this call.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	e.live--
	return true
}

// Step runs the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(*event)
		if ev.canceled {
			continue
		}
		e.live--
		e.now = ev.at
		e.Executed++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the heap drains. It returns the final virtual
// time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if any time remains) and returns. Events scheduled
// after the deadline stay pending.
func (e *Engine) RunUntil(deadline Time) Time {
	for next := e.peek(); next != nil && next.at <= deadline; next = e.peek() {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunLimit executes at most maxEvents events, guarding against runaway
// simulations (e.g. a retry loop that never converges). It returns the
// number executed and whether the heap drained.
func (e *Engine) RunLimit(maxEvents uint64) (executed uint64, drained bool) {
	start := e.Executed
	for e.Executed-start < maxEvents {
		if !e.Step() {
			return e.Executed - start, true
		}
	}
	return e.Executed - start, false
}

func (e *Engine) peek() *event {
	for len(e.heap) > 0 {
		ev := e.heap[0]
		if !ev.canceled {
			return ev
		}
		heap.Pop(&e.heap)
	}
	return nil
}
