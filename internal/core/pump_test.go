package core

import (
	"fmt"
	"testing"
)

// pumpModel is one point of the pump protocol's state space: the channel's
// state word plus every kicker's program counter (pc* below) and the
// bookkeeping the invariants need.
type pumpModel struct {
	n         int
	idle      [3]bool // kicker i's kick is a NIC-idle activation
	pc        [3]int
	word      uint32
	reentered bool // the one re-entrant idle kick has fired
	kicks     int
	scans     int
	unserved  int    // kicks that no scan has begun after yet
	idleOwed  bool   // an idle kick landed since the last scan began
	path      string // the steps taken, for failure messages
}

// A kicker's program, as in kickChannel: kick; if it runs the pump, then
// begin a scan, scan (an idle kick may fire inside it), finish, and begin
// again until finish says stop.
const (
	pcKick = iota
	pcBegin
	pcScan
	pcDone
)

// TestPumpProtocolExhaustive steps the pump state word's transitions
// (pumpKick, pumpKickIdle, pumpBegin, pumpFinish) through every
// interleaving of up to three kicks, each plain or idle, plus one
// re-entrant idle kick fired inside a scan, as Mesh.Post's inline
// completion does. kickChannel applies each transition with a CAS loop, so
// each is one atomic step here. It checks: never two runners; every kick is
// followed by a scan that begins after it; each idle request reaches the
// first such scan and no later one; the word is 0 once every kicker has
// returned; scans <= kicks.
func TestPumpProtocolExhaustive(t *testing.T) {
	leaves := 0
	for n := 1; n <= 3; n++ {
		for kinds := 0; kinds < 1<<n; kinds++ {
			m := pumpModel{n: n}
			for i := 0; i < n; i++ {
				m.idle[i] = kinds>>i&1 == 1
			}
			leaves += explorePump(t, m)
			if t.Failed() {
				return
			}
		}
	}
	t.Logf("%d complete interleavings checked", leaves)
}

// explorePump runs every continuation of m and returns how many complete
// interleavings it checked.
func explorePump(t *testing.T, m pumpModel) int {
	runners := 0
	for i := 0; i < m.n; i++ {
		if m.pc[i] == pcBegin || m.pc[i] == pcScan {
			runners++
		}
	}
	if runners > 1 {
		t.Fatalf("two runners after %s", m.path)
	}
	leaves, moved := 0, false
	for i := 0; i < m.n; i++ {
		switch m.pc[i] {
		case pcKick:
			next := m
			kick := pumpKick
			if m.idle[i] {
				kick = pumpKickIdle
			}
			var run bool
			next.word, run = kick(m.word)
			next.noteKick(m.idle[i], fmt.Sprintf(" k%d", i))
			next.pc[i] = pcDone
			if run {
				next.pc[i] = pcBegin
			}
			leaves += explorePump(t, next)
			moved = true
		case pcBegin:
			next := m
			var idle bool
			next.word, idle = pumpBegin(m.word)
			next.path += fmt.Sprintf(" b%d", i)
			if idle != m.idleOwed {
				t.Fatalf("scan saw idle=%v, want %v after %s", idle, m.idleOwed, next.path)
			}
			next.idleOwed, next.unserved = false, 0
			next.scans++
			next.pc[i] = pcScan
			leaves += explorePump(t, next)
			moved = true
		case pcScan:
			if !m.reentered {
				next := m
				var run bool
				next.word, run = pumpKickIdle(m.word)
				next.reentered = true
				next.noteKick(true, fmt.Sprintf(" r%d", i))
				if run {
					t.Fatalf("re-entrant kick started a second runner after %s", next.path)
				}
				leaves += explorePump(t, next)
			}
			next := m
			var stop bool
			next.word, stop = pumpFinish(m.word)
			next.path += fmt.Sprintf(" f%d", i)
			next.pc[i] = pcBegin
			if stop {
				next.pc[i] = pcDone
			}
			leaves += explorePump(t, next)
			moved = true
		}
	}
	if moved {
		return leaves
	}
	if m.word != 0 {
		t.Fatalf("word %#b after every kicker returned:%s", m.word, m.path)
	}
	if m.unserved != 0 {
		t.Fatalf("%d kicks with no scan after them:%s", m.unserved, m.path)
	}
	if m.scans > m.kicks {
		t.Fatalf("%d scans for %d kicks:%s", m.scans, m.kicks, m.path)
	}
	return 1
}

func (m *pumpModel) noteKick(idle bool, step string) {
	m.kicks++
	m.unserved++
	m.idleOwed = m.idleOwed || idle
	m.path += step
}
