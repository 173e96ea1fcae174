package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"newmad/bench/layers"
)

// transport is what a side sends its messages through: the engine stack or
// the bare-socket reference.
type transport interface {
	// send hands message seq of flow f over. msg is the whole message: the
	// 16-byte header, then the body.
	send(f *flow, seq uint64, msg []byte) error
	// attach names the side deliveries are handed to; it is called once,
	// before any workload traffic.
	attach(s *side)
	close()
}

// side is one system under load — the engine or the reference — with the
// generator state and the receive-side checks that belong to it. Both sides
// of a run are built from the same seed, so they are offered the same
// messages in the same order.
type side struct {
	name  string
	w     *workload
	tx    transport
	pat   pattern
	sched *schedule
	epoch time.Time // message due times count from here

	flows []flowState
	lanes []atomic.Int64 // messages outstanding per lane
	// The generator sleeps on wake while its lane is full; waiting keeps the
	// deliver path from paying for the channel when nobody sleeps. stop is
	// raised (with a wake-up) when the segment's sending time is over.
	waiting atomic.Bool
	wake    chan struct{}
	stop    atomic.Bool

	seg atomic.Pointer[segment]

	// traces, when set, holds per flow the span tables of the traced run:
	// leg 0 the message (or request), leg 1 the reply of an echo workload.
	tracer *layers.Tracer
	traces [][2]*layers.FlowTrace
}

type flowState struct {
	next uint64 // next sequence number to send; generator-owned

	mu     sync.Mutex
	expect uint64 // next sequence number the receiver must see
}

// segment is the accounting of one measured stretch of traffic.
type segment struct {
	delivered atomic.Int64
	bytes     atomic.Int64
	failed    atomic.Int64 // payload, flow, order or duplicate check failed
	lat       []int64      // ns from due to delivery, timed non-bulk messages
	nlat      atomic.Int64
}

// newSide builds the side of w that sends through tx, and attaches it.
func newSide(name string, w *workload, seed int64, tx transport) *side {
	s := &side{
		name: name, w: w, tx: tx,
		pat:   newPattern(seed, w),
		sched: newSchedule(w, seed),
		epoch: time.Now(),
		flows: make([]flowState, len(w.flows)),
		lanes: make([]atomic.Int64, len(w.windows)),
		// One slot: a delivery that finds it full knows a wake-up is already
		// on its way.
		wake: make(chan struct{}, 1),
	}
	s.seg.Store(&segment{})
	if tx != nil {
		tx.attach(s)
	}
	return s
}

// deliver is the receive side of every transport: node `at` got a message
// from node `from`. It checks the bytes against the pattern, the flow
// against who delivered it, and the sequence number against the last one
// seen on the flow (in order, exactly once), then accounts for the message.
// It reports answer when the message is the request of an echo workload
// reaching its destination: the transport then sends the same bytes back
// (the checks run on the reply).
func (s *side) deliver(at, from int, hdr, body []byte) (answer bool) {
	seg := s.seg.Load()
	m, ok := s.pat.parse(s.w, hdr, body)
	if !ok {
		seg.failed.Add(1)
		return false
	}
	f := &s.w.flows[m.flow]
	wantAt, wantFrom := f.dst, f.src
	leg := 0
	if s.w.echo && at == f.src {
		leg, wantAt, wantFrom = 1, f.src, f.dst
	}
	if at != wantAt || from != wantFrom {
		seg.failed.Add(1)
		return false
	}
	var sp *layers.Span
	if s.traces != nil {
		if sp = s.traces[m.flow][leg].Span(int(m.seq)); sp != nil {
			sp.DeliverIn.Store(s.tracer.Now())
		}
	}
	if s.w.echo && leg == 0 {
		// The reply's submit, stamped by the transport, ends this leg.
		return true
	}
	fs := &s.flows[m.flow]
	fs.mu.Lock()
	inOrder := m.seq == fs.expect
	if m.seq >= fs.expect {
		fs.expect = m.seq + 1
	}
	fs.mu.Unlock()
	if !inOrder {
		seg.failed.Add(1)
	} else {
		if m.due != 0 && !f.bulk {
			if i := seg.nlat.Add(1) - 1; int(i) < len(seg.lat) {
				seg.lat[i] = int64(time.Since(s.epoch)) - m.due
			}
		}
		seg.bytes.Add(int64(len(hdr) + len(body)))
		if sp != nil {
			sp.DeliverOut.Store(s.tracer.Now())
		}
		// Last: the count is what the generator waits on before it reads
		// the rest.
		seg.delivered.Add(1)
	}
	// A generator asleep on a full window is woken at half, not at the
	// first gap: refilling one message per wake-up is all scheduler and no
	// traffic, on either side.
	if left := s.lanes[f.lane].Add(-1); s.waiting.Load() && left <= int64(s.w.windows[f.lane]/2) {
		s.wakeUp()
	}
	return false
}

func (s *side) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// sendFor opens a sending window of d: stop rises, and a sleeping generator
// is woken, when it is over. The caller stops the returned timer.
func (s *side) sendFor(d time.Duration) *time.Timer {
	s.stop.Store(false)
	return time.AfterFunc(d, func() {
		s.stop.Store(true)
		s.wakeUp()
	})
}

// emit sends the next message of the schedule, due at `due` (0 = untimed).
// With bounded set it first waits for room in the message's lane, and gives
// up, reporting false, once stop is raised.
func (s *side) emit(due int64, bounded bool) (ok bool, err error) {
	f := s.sched.next()
	if bounded {
		lane, window := &s.lanes[f.lane], int64(s.w.windows[f.lane])
		for lane.Load() >= window {
			if s.stop.Load() {
				return false, nil
			}
			s.waiting.Store(true)
			if lane.Load() >= window && !s.stop.Load() {
				<-s.wake
			}
			s.waiting.Store(false)
		}
	}
	fs := &s.flows[f.idx]
	seq := fs.next
	fs.next++
	msg := make([]byte, f.size())
	s.pat.fill(msg, f, seq, due)
	s.lanes[f.lane].Add(1)
	var sp *layers.Span
	if s.traces != nil {
		if sp = s.traces[f.idx][0].Span(int(seq)); sp != nil {
			sp.Due.Store(due)
			sp.SubmitIn.Store(s.tracer.Now())
		}
	}
	err = s.tx.send(f, seq, msg)
	if sp != nil {
		sp.SubmitOut.Store(s.tracer.Now())
	}
	if err != nil {
		s.lanes[f.lane].Add(-1)
	}
	return true, err
}

// result is what one segment measured.
type result struct {
	attempted int64
	delivered int64
	failed    int64 // refused at send + failed a receive check + never delivered
	bytes     int64
	elapsed   time.Duration // first send → last delivery seen
	cpu       time.Duration // process user+sys over elapsed
	mallocs   uint64        // heap allocations over elapsed
	gcPause   time.Duration
	drained   bool    // every message was accounted for before the deadline
	lat       []int64 // sorted ns, timed non-bulk messages that were delivered
	late      []int64 // sorted ns, how late each tick's sleep woke up
}

func (r *result) msgsPerSec() float64  { return float64(r.delivered) / r.elapsed.Seconds() }
func (r *result) bytesPerSec() float64 { return float64(r.bytes) / r.elapsed.Seconds() }
func (r *result) cpuPerMsg() float64   { return float64(r.cpu) / float64(r.delivered) }

// pctl returns the q-quantile of sorted samples (nearest rank), 0 for none.
func pctl(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// probe opens a measured stretch: a fresh segment, and the process counters
// the stretch is charged against.
type probe struct {
	s     *side
	seg   *segment
	start time.Time
	cpu   time.Duration
	mem   memCounters
}

func (s *side) begin(latSamples int) *probe {
	p := &probe{s: s, seg: &segment{lat: make([]int64, latSamples)}}
	s.seg.Store(p.seg)
	// Every segment starts from the same heap: what the previous one left
	// behind must not decide when this one's collections fall.
	runtime.GC()
	p.mem = readMem()
	p.cpu = cpuTime()
	p.start = time.Now()
	return p
}

// end waits until every attempted message is accounted for (or drain runs
// out), then closes the books. refused counts sends the transport turned
// down.
func (p *probe) end(attempted, refused int64, late []int64, drain time.Duration) *result {
	deadline := time.Now().Add(drain)
	seg := p.seg
	for seg.delivered.Load()+seg.failed.Load()+refused < attempted && time.Now().Before(deadline) {
		sleep(50 * time.Microsecond)
	}
	r := &result{attempted: attempted, late: late}
	r.elapsed = time.Since(p.start)
	r.cpu = cpuTime() - p.cpu
	mem := readMem()
	r.mallocs = mem.mallocs - p.mem.mallocs
	r.gcPause = mem.gcPause - p.mem.gcPause
	r.delivered = seg.delivered.Load()
	r.bytes = seg.bytes.Load()
	bad := seg.failed.Load() + refused
	r.drained = r.delivered+bad >= attempted
	r.failed = bad + max(0, attempted-r.delivered-bad)
	r.lat = seg.lat[:min(int(seg.nlat.Load()), len(seg.lat))]
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	sort.Slice(r.late, func(i, j int) bool { return r.late[i] < r.late[j] })
	if !r.drained {
		// What is still in flight would otherwise land in the next segment.
		p.s.resync()
	}
	return r
}

// resync forgets what is in flight after a segment that did not drain, so
// the books of the next one start clean. Such a run has already failed.
func (s *side) resync() {
	for i := range s.lanes {
		s.lanes[i].Store(0)
	}
}

// closedLoop keeps every lane's window full for dur: a message is sent as
// soon as its lane has room. Messages are untimed — the phase measures
// throughput and cost, and a clock read per message would be part of both.
func (s *side) closedLoop(dur, drain time.Duration) *result {
	p := s.begin(0)
	defer s.sendFor(dur).Stop()
	var attempted, refused int64
	for !s.stop.Load() {
		ok, err := s.emit(0, true)
		if !ok {
			break
		}
		attempted++
		if err != nil {
			refused++
		}
	}
	return p.end(attempted, refused, nil, drain)
}

// sleep blocks the generator's thread in the kernel for d. time.Sleep will
// not do: a Go timer that expires while the runtime is parked in epoll_wait
// is rounded up to the next whole millisecond, which on a 1 ms tick is the
// whole tick.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// tick is the open loop's submission quantum.
const tick = time.Millisecond

// openLoop offers rate messages per second for dur to every one of sides at
// once, on a fixed schedule of 1 ms ticks, whatever the systems do with
// them. Sides that are measured against each other share their ticks — the
// first goes first in one tick's burst, the last in the next (ticks without
// a message do not count: at half a message per tick one side would always
// lead) — so that whatever state the machine is in, they meet it together.
//
// A message is due at its tick's scheduled time — so a generator that has
// fallen behind because sending to this side stalled is charged in full, no
// coordinated omission — with two exceptions, neither of them the side's
// doing: a tick the generator slept towards is due when the sleep actually
// returned (the operating system's timer slack is reported as late, not
// charged), and a side's messages are never due before the generator was
// done with the other sides. limit bounds the messages offered to a side (0 = no
// bound). A generator that has not got its messages out by dur+drain gives up
// with an error.
func openLoop(sides []*side, rate float64, dur, drain time.Duration, limit int64) ([]*result, error) {
	ticks := int(dur / tick)
	probes := make([]*probe, len(sides))
	attempted := make([]int64, len(sides))
	refused := make([]int64, len(sides))
	for k, s := range sides {
		probes[k] = s.begin(int(rate*dur.Seconds()) + 1)
		defer s.sendFor(dur + drain).Stop()
	}
	start := time.Now()
	var late []int64
	var wake time.Time
	free := make([]time.Time, len(sides)) // when the generator last left another side
	var err error
	acc, bursts := 0.0, 0
offering:
	for i := 0; i < ticks && (limit == 0 || attempted[0] < limit); i++ {
		sched := start.Add(time.Duration(i) * tick)
		if now := time.Now(); now.Before(sched) {
			sleep(sched.Sub(now))
			wake = time.Now()
			late = append(late, int64(wake.Sub(sched)))
		}
		due := sched
		if due.Before(wake) {
			due = wake
		}
		acc += rate * tick.Seconds()
		n := int(acc)
		acc -= float64(n)
		if n > 0 {
			bursts++
		}
		for k := range sides {
			if bursts%2 == 0 {
				k = len(sides) - 1 - k
			}
			s := sides[k]
			due := due
			if due.Before(free[k]) {
				due = free[k]
			}
			for m := n; m > 0; m-- {
				ok := !s.stop.Load()
				var serr error
				if ok {
					ok, serr = s.emit(int64(due.Sub(s.epoch)), s.w.laneBoundRate)
				}
				if !ok {
					err = fmt.Errorf("%s: the generator was still %d ticks short of %.0f msgs/s after %v", s.name, ticks-i, rate, dur+drain)
					break offering
				}
				attempted[k]++
				if serr != nil {
					refused[k]++
				}
			}
			if len(sides) > 1 && n > 0 {
				done := time.Now()
				for j := range free {
					if j != k {
						free[j] = done
					}
				}
			}
		}
	}
	results := make([]*result, len(sides))
	for k, p := range probes {
		results[k] = p.end(attempted[k], refused[k], late, drain)
	}
	return results, err
}
