package main

import (
	"testing"

	"newmad/internal/exp"
)

// TestPairwiseSitsBetweenFifoAndAggregate pins the claim main prints: a
// bundle registered outside internal/strategy runs through the shared rig,
// pairing halves fifo's frames and greedy aggregation beats pairing.
func TestPairwiseSitsBetweenFifoAndAggregate(t *testing.T) {
	frames := map[string]uint64{}
	for _, name := range []string{"fifo", "pairwise", "aggregate"} {
		m, _, err := exp.RunPoint(point(name), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames[name] = m.Frames
	}
	if !(frames["aggregate"] < frames["pairwise"] && frames["pairwise"] <= frames["fifo"]/2+1) {
		t.Fatalf("want aggregate < pairwise <= fifo/2+1, got %v", frames)
	}
}
