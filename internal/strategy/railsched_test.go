package strategy

import (
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

func schedRails() []caps.Caps {
	// rail 0: low-latency, low-bandwidth; rails 1,2: fat, slower-to-launch
	// pipes with a tighter eager limit (a heterogeneous technology mix).
	lo := caps.MX
	lo.Name = "lo"
	lo.WireLatency = 500 // lowest PostOverhead+WireLatency of the three
	lo.Bandwidth = 100e6
	lo.MaxAggregate = 32 * 1024
	b1 := caps.Elan
	b1.Name = "big1"
	b1.WireLatency = 4000
	b1.Bandwidth = 900e6
	b1.MaxAggregate = 16 * 1024
	b2 := b1
	b2.Name = "big2"
	return []caps.Caps{lo, b1, b2}
}

func TestScheduledRailControlPinsToLowLatency(t *testing.T) {
	rails := schedRails()
	s := NewScheduledRail(rails)
	ctrl := &packet.Packet{Class: packet.ClassControl}
	for i := range rails {
		got := s.Eligible(ctrl, RailInfo{Index: i, Count: len(rails), Caps: rails[i]})
		if got != (i == 0) {
			t.Fatalf("control on rail %d: eligible=%v", i, got)
		}
	}
}

func TestScheduledRailBulkStripesAcrossFatRails(t *testing.T) {
	rails := schedRails()
	s := NewScheduledRail(rails)
	hits := make([]int, len(rails))
	for msg := 0; msg < 200; msg++ {
		p := &packet.Packet{Class: packet.ClassBulk, Flow: 7, Msg: packet.MsgID(msg)}
		chosen := -1
		for i := range rails {
			if s.Eligible(p, RailInfo{Index: i, Count: len(rails), Caps: rails[i]}) {
				if chosen != -1 {
					t.Fatalf("bulk transfer msg=%d eligible on rails %d and %d (striping must pick one)", msg, chosen, i)
				}
				chosen = i
			}
		}
		if chosen == -1 {
			t.Fatalf("bulk transfer msg=%d eligible nowhere", msg)
		}
		hits[chosen]++
	}
	if hits[0] != 0 {
		t.Fatalf("heterogeneous node striped %d bulk transfers onto the latency rail", hits[0])
	}
	if hits[1] == 0 || hits[2] == 0 {
		t.Fatalf("bulk not striped: distribution %v", hits)
	}
}

func TestScheduledRailHomogeneousBulkUsesEveryRail(t *testing.T) {
	rails := caps.RailProfiles(caps.TCP, 2)
	s := NewScheduledRail(rails)
	hits := make([]int, len(rails))
	for msg := 0; msg < 200; msg++ {
		p := &packet.Packet{Class: packet.ClassBulk, Flow: 3, Msg: packet.MsgID(msg)}
		for i := range rails {
			if s.Eligible(p, RailInfo{Index: i, Count: len(rails), Caps: rails[i]}) {
				hits[i]++
			}
		}
	}
	if hits[0] == 0 || hits[1] == 0 {
		t.Fatalf("homogeneous rails must both carry bulk: distribution %v", hits)
	}
}

func TestScheduledRailSmallRespectsPerRailCaps(t *testing.T) {
	rails := schedRails()
	s := NewScheduledRail(rails)
	// Elan's MaxAggregate is 16 KiB: a 20 KiB eager packet may not overflow
	// onto the fat rails, but the low-latency rail (MX, 32 KiB) admits it.
	big := &packet.Packet{Class: packet.ClassSmall, Flow: 1, Payload: make([]byte, 20*1024)}
	if !s.Eligible(big, RailInfo{Index: 0, Count: 3, Caps: rails[0]}) {
		t.Fatal("low-latency rail must always admit small eager traffic")
	}
	for i := 1; i < 3; i++ {
		if s.Eligible(big, RailInfo{Index: i, Count: 3, Caps: rails[i]}) {
			t.Fatalf("rail %d admitted a packet beyond its MaxAggregate", i)
		}
	}
	small := &packet.Packet{Class: packet.ClassSmall, Flow: 1, Payload: make([]byte, 512)}
	for i := 0; i < 3; i++ {
		if !s.Eligible(small, RailInfo{Index: i, Count: 3, Caps: rails[i]}) {
			t.Fatalf("rail %d rejected an in-cap small packet", i)
		}
	}
}

func TestScheduledRailSingleRailAdmitsEverything(t *testing.T) {
	rails := caps.RailProfiles(caps.TCP, 1)
	s := NewScheduledRail(rails)
	for _, class := range []packet.ClassID{packet.ClassControl, packet.ClassSmall, packet.ClassBulk, packet.ClassRMA} {
		p := &packet.Packet{Class: class, Flow: 1, Payload: make([]byte, 1<<20)}
		if !s.Eligible(p, RailInfo{Index: 0, Count: 1, Caps: rails[0]}) {
			t.Fatalf("single rail rejected class %v", class)
		}
	}
}
