package trace

import (
	"strings"
	"sync"
	"testing"

	"newmad/internal/packet"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindSubmit}) // must not panic
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder reports events")
	}
	if r.Events() != nil {
		t.Fatal("nil recorder returns events")
	}
}

func TestRecordAndRead(t *testing.T) {
	r := New(64)
	for i := 0; i < 5; i++ {
		r.Record(Event{At: 100, Kind: KindSubmit, Node: 1, Flow: packet.FlowID(i), Seq: i})
	}
	if r.Len() != 5 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("events out of order: %v", evs)
		}
	}
}

func TestRingEviction(t *testing.T) {
	r := New(16)
	for i := 0; i < 40; i++ {
		r.Record(Event{Seq: i})
	}
	if r.Len() != 16 {
		t.Fatalf("len = %d, want 16", r.Len())
	}
	if r.Total() != 40 {
		t.Fatalf("total = %d", r.Total())
	}
	evs := r.Events()
	if evs[0].Seq != 24 || evs[15].Seq != 39 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", evs[0].Seq, evs[15].Seq)
	}
}

func TestMinimumCapacityClamped(t *testing.T) {
	r := New(1)
	for i := 0; i < 20; i++ {
		r.Record(Event{Seq: i})
	}
	if r.Len() != 16 {
		t.Fatalf("len = %d, want clamped 16", r.Len())
	}
}

func TestDumpAndStrings(t *testing.T) {
	r := New(16)
	r.Record(Event{At: 1500, Kind: KindPlan, Node: 2, Flow: 3, Seq: 4, A: 5, B: 6, Note: "aggregate"})
	out := r.Dump()
	for _, want := range []string{"PLAN", "n2", "f3/#4", "a=5", "b=6", "aggregate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	for k := Kind(0); k <= KindFault; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no mnemonic", k)
		}
	}
	if !strings.Contains(Kind(77).String(), "77") {
		t.Fatal("unknown kind string")
	}
}

// TestRingWraparoundOrdering pins Events' oldest-first contract at every
// phase of ring occupancy: partially filled, exactly full, and mid-wrap at
// several offsets — the reconstruction indexes by next%cap, which is easy
// to get off by one.
func TestRingWraparoundOrdering(t *testing.T) {
	const capacity = 16
	for _, total := range []int{1, capacity - 1, capacity, capacity + 1, capacity + 7, 3 * capacity, 3*capacity + 5} {
		r := New(capacity)
		for i := 0; i < total; i++ {
			r.Record(Event{Seq: i})
		}
		evs := r.Events()
		wantLen := total
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(evs) != wantLen {
			t.Fatalf("total=%d: len=%d, want %d", total, len(evs), wantLen)
		}
		first := total - wantLen
		for i, e := range evs {
			if e.Seq != first+i {
				t.Fatalf("total=%d: events[%d].Seq=%d, want %d (window %v)", total, i, e.Seq, first+i, evs)
			}
		}
	}
}

// TestConcurrentRecordAndRead drives Record against Events, Dump and Len
// from separate goroutines; run under -race this is the recorder's
// concurrency contract.
func TestConcurrentRecordAndRead(t *testing.T) {
	r := New(64)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				r.Record(Event{Kind: Kind(i % int(KindFault+1)), Seq: i, Node: packet.NodeID(g)})
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Events()
				_ = r.Dump()
				_ = r.Len()
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Total() != 8000 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(Event{Kind: KindRecv})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 8000 {
		t.Fatalf("total = %d", r.Total())
	}
	if r.Len() != 128 {
		t.Fatalf("len = %d", r.Len())
	}
}
