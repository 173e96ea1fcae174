package strategy

import (
	"fmt"
	"strings"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// TestScheduledRailPlacementIdentity pins ScheduledRail's placements as
// exact values: for fixed packets over three rail sets, the stripe slot and
// the per-rail Eligible verdicts. The property tests bound the walk's
// proportions; this table catches any change to the arithmetic itself (the
// sanitized bandwidth weights, the hetero mask, the prefix sums, the R2
// walk), which would move individual placements while keeping the
// proportions inside their envelope.
//
// Each entry reads "stripe:verdicts", one verdict digit per rail.
func TestScheduledRailPlacementIdentity(t *testing.T) {
	packets := []struct {
		class packet.ClassID
		flow  packet.FlowID
		msg   packet.MsgID
		seq   int
		size  int
	}{
		{packet.ClassControl, 1, 0, 0, 0},
		{packet.ClassControl, 9, 3, 0, 64},
		{packet.ClassSmall, 1, 0, 0, 512},
		{packet.ClassSmall, 2, 7, 3, 8 * 1024},
		{packet.ClassSmall, 3, 11, 0, 20 * 1024},
		{packet.ClassSmall, 4, 12, 1, 40 * 1024},
		{packet.ClassSmall, 5, 13, 2, 80 * 1024},
		{packet.ClassBulk, 1, 0, 0, 256 * 1024},
		{packet.ClassBulk, 1, 1, 0, 256 * 1024},
		{packet.ClassBulk, 1, 1, 1, 256 * 1024},
		{packet.ClassBulk, 7, 42, 5, 1 << 20},
		{packet.ClassBulk, 1<<30 + 3, 1<<20 + 9, 2, 4096},
		{packet.ClassBulk, -5, -3, 4, 4096},
		{packet.ClassBulk, 123456, 987654321, 17, 64 * 1024},
		{packet.ClassBulk, 65535, 1<<40 + 5, 0, 128 * 1024},
		{packet.ClassRMA, 2, 5, 0, 64 * 1024},
		{packet.ClassRMA, 31, 1000, 63, 1 << 20},
		{packet.ClassRMA, -1 << 31, 77, 8, 8192},
		{packet.ClassBulk, 8, 8, 8, 8},
	}

	unequal := caps.RailProfiles(caps.TCP, 3)
	for i, bw := range []float64{1e9, 3e9, 2e9} {
		unequal[i].Bandwidth = bw
	}
	sets := []struct {
		name  string
		rails []caps.Caps
		want  []string
	}{
		{"tcp-x2", caps.RailProfiles(caps.TCP, 2), []string{
			"1:10", "1:10", "1:11", "0:11", "1:11", "0:11", "0:10", "1:01", "0:10", "1:01",
			"0:10", "1:01", "1:01", "1:01", "1:01", "0:10", "0:10", "0:10", "1:01",
		}},
		// Rail 0 has the lowest latency but not the highest bandwidth: the
		// hetero mask keeps bulk off it.
		{"unequal-x3", unequal, []string{
			"2:100", "1:100", "2:111", "1:111", "1:111", "1:111", "1:100", "2:001", "1:010", "2:001",
			"1:010", "2:001", "2:001", "2:001", "2:001", "1:010", "1:010", "1:010", "1:010",
		}},
		// Elan (rail 1) is both the lowest-latency and the fastest rail.
		{"mx+elan", []caps.Caps{caps.MX, caps.Elan}, []string{
			"1:01", "1:01", "1:11", "1:11", "1:11", "1:01", "1:01", "1:01", "1:01", "1:01",
			"1:01", "1:01", "1:01", "1:01", "1:01", "1:01", "0:10", "1:01", "1:01",
		}},
	}

	for _, set := range sets {
		s := NewScheduledRail(set.rails)
		got := make([]string, len(packets))
		for k, pc := range packets {
			p := &packet.Packet{Class: pc.class, Flow: pc.flow, Msg: pc.msg, Seq: pc.seq, Payload: make([]byte, pc.size)}
			var b strings.Builder
			fmt.Fprintf(&b, "%d:", s.stripe(p))
			for ri := range set.rails {
				if s.Eligible(p, RailInfo{Index: ri, Count: len(set.rails), Caps: set.rails[ri]}) {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			got[k] = b.String()
		}
		if fmt.Sprint(got) != fmt.Sprint(set.want) {
			t.Errorf("%s: placements moved\n got: %q\nwant: %q", set.name, got, set.want)
		}
	}
}
