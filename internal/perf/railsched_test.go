package perf

import (
	"fmt"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/strategy"
)

// TestAllocsRailSchedEligible extends the AllocsPerRun gates to the
// multi-rail bulk placement path: Eligible across every rail and class,
// stripe walk included — plain field reads of the immutable scheduler, zero
// allocations, zero locks (DESIGN.md §3.2).
func TestAllocsRailSchedEligible(t *testing.T) {
	rails := []caps.Caps{caps.MX, caps.Elan, caps.Elan}
	for i := range rails {
		rails[i].Name = fmt.Sprintf("r%d", i)
	}
	s := strategy.NewScheduledRail(rails)
	bulk := &packet.Packet{Class: packet.ClassBulk, Flow: 3, Msg: 5, Seq: 9}
	small := &packet.Packet{Class: packet.ClassSmall, Payload: make([]byte, 1024)}
	sink := false
	allocs := testing.AllocsPerRun(500, func() {
		for ri := 0; ri < len(rails); ri++ {
			info := strategy.RailInfo{Index: ri, Count: len(rails), Caps: rails[ri]}
			sink = s.Eligible(bulk, info) || sink
			sink = s.Eligible(small, info) || sink
		}
		bulk.Seq++
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("multi-rail Eligible/stripe path allocates: %.1f allocs/op, want 0", allocs)
	}
}
