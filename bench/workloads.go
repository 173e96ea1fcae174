package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"newmad/bench/layers"
	"newmad/internal/packet"
)

// A message is a 16-byte header — flow, sequence number, body length — and a
// body that starts with the time the message was due (nanoseconds since the
// run's epoch, 0 when nobody is timing) and continues with a window into the
// run's seeded pattern. Through mad the two travel as an express fragment
// and a cheaper one; raw workloads submit them as one packet.
const (
	headerLen = 16
	dueLen    = 8
	// patSlack is how far the pattern window slides with (flow, seq).
	patSlack = 256
)

// flow is one stream of messages from src to dst. Per-flow order and
// exactly-once delivery are checked on it.
type flow struct {
	idx      int
	src, dst int
	lane     int    // which closed-loop window the flow's messages count against
	body     int    // body bytes per message
	bulk     bool   // the conglomerate's large messages: left out of the latency samples
	channel  string // mad channel; "" for a raw flow
	class    packet.ClassID
}

func (f *flow) size() int { return headerLen + f.body }

// workload is one fixed traffic mix. Rates and windows are constants: they
// are the same on every commit, so numbers stay comparable.
type workload struct {
	name string
	why  string

	nodes  int
	shards int
	mad    bool // through mad.Session channels instead of core.Engine.Submit
	echo   bool // a message is a round trip: dst answers from its deliver callback
	// channels are the mad channels the flows use, in creation order.
	channels []string
	flows    []flow
	// windows[lane] bounds the messages outstanding in the saturation phase.
	windows []int
	// laneBoundRate keeps the windows in the rate phase too: a round trip
	// has one request outstanding by nature, at any rate. Such a workload is
	// sparse, and its latency is made of wake-ups; a second system running
	// in the same ticks keeps the processors awake and hides them (engine ÷
	// reference fell from 2.4 to 1.4 when that was tried), so engine and
	// reference take half of each rate segment in turn instead of sharing
	// its ticks. Alternating spread by 4–6 % from run to run on this
	// workload; on the bursty ones it spread by 10–30 %, sharing ticks by
	// 7–14 %.
	laneBoundRate bool
	// rate is the offered load of the rate phase, messages per second.
	rate float64
	// bulkEvery sends one message in every bulkEvery on a bulk flow, at a
	// seeded position (0 = the workload has no bulk flows).
	bulkEvery int
}

func workloads() []*workload {
	small := &workload{
		name:  "small_multiflow",
		why:   "8 flows of 64 B packets, window 64: per-packet host cost is everything, so cross-flow aggregation is exercised",
		nodes: 2, windows: []int{64}, rate: 50000,
	}
	for i := 0; i < 8; i++ {
		small.flows = append(small.flows, flow{src: 0, dst: 1, body: 64 - headerLen, class: packet.ClassSmall})
	}

	bulk := &workload{
		name:  "bulk_rdv",
		why:   "4 flows of 256 KiB rendezvous packets, window 4: per-byte cost and the handshake; the planner has nothing to aggregate",
		nodes: 2, windows: []int{4}, rate: 500,
	}
	for i := 0; i < 4; i++ {
		bulk.flows = append(bulk.flows, flow{src: 0, dst: 1, body: 256<<10 - headerLen, class: packet.ClassBulk})
	}

	mesh := &workload{
		name:  "mesh_conglomerate",
		why:   "3 nodes all-to-all through mad, 1 KiB messages with every 32nd 128 KiB: fan-out dilutes aggregation and bulk competes with small",
		nodes: 3, shards: 2, mad: true, channels: []string{"small", "bulk"}, windows: []int{16, 16, 16}, rate: 30000, bulkEvery: 32,
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src != dst {
				mesh.flows = append(mesh.flows, flow{src: src, dst: dst, lane: src, body: 1 << 10, channel: "small"})
			}
		}
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src != dst {
				mesh.flows = append(mesh.flows, flow{src: src, dst: dst, lane: src, body: 128 << 10, channel: "bulk", bulk: true})
			}
		}
	}

	ping := &workload{
		name:  "sparse_pingpong",
		why:   "2 flows of 64 B round trips, one outstanding each: no backlog forms, aggregation is bypassed, the per-frame path is the latency",
		nodes: 2, echo: true, windows: []int{1, 1}, laneBoundRate: true, rate: 2000,
	}
	for i := 0; i < 2; i++ {
		ping.flows = append(ping.flows, flow{src: 0, dst: 1, lane: i, body: 64 - headerLen, class: packet.ClassSmall})
	}

	all := []*workload{small, bulk, mesh, ping}
	for _, w := range all {
		for i := range w.flows {
			w.flows[i].idx = i
		}
	}
	return all
}

// meanSize is the mean message size in bytes.
func (w *workload) meanSize() int {
	small, bulk := 0, 0
	for _, f := range w.flows {
		if f.bulk {
			bulk = f.size()
		} else {
			small = f.size()
		}
	}
	if w.bulkEvery == 0 {
		return small
	}
	return (small*(w.bulkEvery-1) + bulk) / w.bulkEvery
}

// shape is what the layer ledger times its layers on: the workload's
// dominant message, at the aggregation depth the workload reached.
func (w *workload) shape(pktsPerFrame int) layers.Shape {
	f := w.flows[0]
	if w.mad {
		return layers.Shape{Header: headerLen, Body: f.body, Class: packet.ClassSmall, PktsPerFrame: pktsPerFrame}
	}
	return layers.Shape{Body: f.size(), Class: f.class, PktsPerFrame: pktsPerFrame}
}

// pattern is the seeded byte block message bodies are windows into.
type pattern []byte

func newPattern(seed int64, w *workload) pattern {
	longest := 0
	for _, f := range w.flows {
		longest = max(longest, f.body)
	}
	p := make([]byte, longest+patSlack)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func (p pattern) window(flow int, seq uint64, n int) []byte {
	off := int((uint64(flow)*31 + seq*7) % patSlack)
	return p[off : off+n]
}

// fill writes message (f, seq, due) into buf, which is f.size() long.
func (p pattern) fill(buf []byte, f *flow, seq uint64, due int64) {
	binary.BigEndian.PutUint32(buf[0:], uint32(f.idx))
	binary.BigEndian.PutUint64(buf[4:], seq)
	binary.BigEndian.PutUint32(buf[12:], uint32(f.body))
	binary.BigEndian.PutUint64(buf[headerLen:], uint64(due))
	copy(buf[headerLen+dueLen:], p.window(f.idx, seq, f.body-dueLen))
}

// parsed is a received message's identity.
type parsed struct {
	flow int
	seq  uint64
	due  int64
}

// parse decodes a received message and checks its body against the pattern.
// ok is false when lengths, flow index or bytes are not what fill wrote.
func (p pattern) parse(w *workload, hdr, body []byte) (m parsed, ok bool) {
	if len(hdr) != headerLen || len(body) < dueLen {
		return m, false
	}
	m.flow = int(binary.BigEndian.Uint32(hdr[0:]))
	m.seq = binary.BigEndian.Uint64(hdr[4:])
	if m.flow >= len(w.flows) || int(binary.BigEndian.Uint32(hdr[12:])) != len(body) || len(body) != w.flows[m.flow].body {
		return m, false
	}
	m.due = int64(binary.BigEndian.Uint64(body))
	return m, bytes.Equal(body[dueLen:], p.window(m.flow, m.seq, len(body)-dueLen))
}

// schedule is the seeded order in which flows take turns: every round is a
// fresh permutation of the small flows, and when the workload has bulk flows
// one message in every bulkEvery goes to a seeded one of them at a seeded
// position. The engine sees only the messages this produces.
type schedule struct {
	w          *workload
	rng        *rand.Rand
	small      []int // reshuffled every round
	bulk       []int
	pos        int // next turn within the round
	n          int // messages scheduled so far
	bulkAt     int // position of the bulk message within the current block
	bulkTarget int
}

func newSchedule(w *workload, seed int64) *schedule {
	s := &schedule{w: w, rng: rand.New(rand.NewSource(seed))}
	for i, f := range w.flows {
		if f.bulk {
			s.bulk = append(s.bulk, i)
		} else {
			s.small = append(s.small, i)
		}
	}
	s.pos = len(s.small)
	return s
}

// next returns the flow of the next message.
func (s *schedule) next() *flow {
	if s.w.bulkEvery > 0 {
		if s.n%s.w.bulkEvery == 0 {
			s.bulkAt = s.rng.Intn(s.w.bulkEvery)
			s.bulkTarget = s.bulk[s.rng.Intn(len(s.bulk))]
		}
		at := s.n % s.w.bulkEvery
		s.n++
		if at == s.bulkAt {
			return &s.w.flows[s.bulkTarget]
		}
	}
	if s.pos == len(s.small) {
		s.rng.Shuffle(len(s.small), func(i, j int) { s.small[i], s.small[j] = s.small[j], s.small[i] })
		s.pos = 0
	}
	f := &s.w.flows[s.small[s.pos]]
	s.pos++
	return f
}
