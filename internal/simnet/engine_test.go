package simnet

import (
	"testing"
	"time"
)

func TestEngineRunsEventsInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, "c", func() { got = append(got, 3) })
	e.At(10, "a", func() { got = append(got, 1) })
	e.At(20, "b", func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, "tie", func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending insertion order", got)
		}
	}
}

func TestEngineClockAdvancesDuringEvents(t *testing.T) {
	e := NewEngine()
	var at1, at2 Time
	e.At(100, "x", func() { at1 = e.Now() })
	e.At(250, "y", func() { at2 = e.Now() })
	e.Run()
	if at1 != 100 || at2 != 250 {
		t.Fatalf("observed times %v, %v; want 100, 250", at1, at2)
	}
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(10, "step", step)
		}
	}
	e.After(10, "step", step)
	end := e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 50 {
		t.Fatalf("end = %v, want 50", end)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, "past", func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(10, "victim", func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(20, "victim", func() { ran = true })
	e.At(10, "canceler", func() { e.Cancel(id) })
	e.Run()
	if ran {
		t.Fatal("event canceled at t=10 still ran at t=20")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, "tick", func() { got = append(got, at) })
	}
	end := e.RunUntil(25)
	if end != 25 {
		t.Fatalf("RunUntil returned %v, want 25", end)
	}
	if len(got) != 2 {
		t.Fatalf("executed %d events before deadline, want 2", len(got))
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("after Run executed %d, want 4", len(got))
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle RunUntil left clock at %v, want 1000", e.Now())
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	var step func()
	step = func() { e.After(1, "loop", step) } // infinite chain
	e.After(1, "loop", step)
	n, drained := e.RunLimit(100)
	if drained {
		t.Fatal("infinite chain reported drained")
	}
	if n != 100 {
		t.Fatalf("executed %d, want 100", n)
	}
}

func TestBandwidthTime(t *testing.T) {
	// 1000 bytes at 1 GB/s = 1µs.
	d := BandwidthTime(1000, 1e9)
	if d != 1000 {
		t.Fatalf("BandwidthTime = %v ns, want 1000", int64(d))
	}
	if BandwidthTime(0, 1e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
}

func TestTimeStringAndConversions(t *testing.T) {
	if Infinity.String() != "+inf" {
		t.Fatalf("Infinity.String() = %q", Infinity.String())
	}
	if got := FromWall(3 * time.Microsecond); got != 3*Microsecond {
		t.Fatalf("FromWall = %v", got)
	}
	if got := ToWall(2 * Millisecond); got != 2*time.Millisecond {
		t.Fatalf("ToWall = %v", got)
	}
	if (Time(5)).Add(7) != 12 {
		t.Fatal("Add broken")
	}
	if (Time(12)).Sub(5) != 7 {
		t.Fatal("Sub broken")
	}
	if (2 * Microsecond).Micros() != 2 {
		t.Fatal("Micros broken")
	}
}
