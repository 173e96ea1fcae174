package chaos

import (
	"fmt"
	"sync"
)

// Trace records the fault events a scenario runner executed, in execution
// order, keyed by their *scheduled* offsets — wall-clock jitter belongs to
// the transport, not to the schedule. The runner records an event only
// after executing it successfully, so trace equality between two runs
// asserts that both executed the complete, identical fault schedule
// without error: a heal that failed (or a run that aborted) shows up as a
// shorter trace and a named divergence in Diff. What equality does NOT
// capture is transport-level nondeterminism *within* an event (e.g. which
// individual frames a break caught in flight); those outcomes surface in
// the recovery counters instead. The socket chaos soak and the
// determinism unit tests compare exactly this.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// Record appends one executed event.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the executed events in execution order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of executed events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Diff compares two traces event-for-event and returns a description of
// the first divergence, or "" when they are identical.
func (t *Trace) Diff(o *Trace) string {
	a, b := t.Events(), o.Events()
	for i := range a {
		if i >= len(b) {
			return fmt.Sprintf("trace B ends at event %d; A continues with %v", i, a[i])
		}
		if a[i] != b[i] {
			return fmt.Sprintf("event %d diverges: A=%v B=%v", i, a[i], b[i])
		}
	}
	if len(b) > len(a) {
		return fmt.Sprintf("trace A ends at event %d; B continues with %v", len(a), b[len(a)])
	}
	return ""
}

// Equal reports whether both traces executed the identical event sequence.
func (t *Trace) Equal(o *Trace) bool { return t.Diff(o) == "" }

// String renders the executed schedule, one event per line.
func (t *Trace) String() string {
	out := ""
	for _, e := range t.Events() {
		out += e.String() + "\n"
	}
	return out
}
