package exp

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/control"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
)

// E11 — the controller addendum to E10's dynamic-policy claim (§2: policies
// "can be changed dynamically as the needs of the application evolve") plus
// the lookahead/delay tuning questions of §3–§4, closed into a loop.
//
// A phase-alternating application: ping-pong rounds (reaction-bound — any
// artificial delay lands on the critical path twice per rung, and deep
// aggregation has nothing to feed on) alternate with dense multi-flow
// bursts (send-bound — per-frame overhead dominates, so narrow lookahead
// wastes the channel). No single static operating point wins both phases:
// the latency tuning loses the burst phases, the throughput tuning loses
// the ping-pong phases, the balanced tuning loses everywhere by a little.
// The adaptive controller (internal/control) must track the phases from
// live telemetry alone: within 10% of the best static tuning on *every*
// phase, and strictly ahead of every static tuning end-to-end.

// E11Result is one configuration's outcome over the alternating phases.
type E11Result struct {
	Name string
	// PhaseTimes is each phase's completion (submission of its first
	// packet to delivery of its last), in phase order.
	PhaseTimes []simnet.Duration
	// Total is the end-to-end virtual completion time.
	Total simnet.Duration
	// Frames is the fleet-wide frame count.
	Frames uint64
	// Retunes counts applied controller decisions (0 for statics).
	Retunes uint64
}

// e11Shape sizes the workload: rungs per ping-pong phase and bursts per
// burst phase. Phases alternate P,T,P,T.
func e11Shape(cfg Config) (rungs, bursts int) {
	if cfg.Quick {
		return 160, 12
	}
	return 400, 32
}

const (
	e11Flows     = 8  // concurrent flows per burst phase
	e11BurstSize = 16 // packets per flow per burst
	e11PingBytes = 64
	e11BurstGap  = 30 * simnet.Microsecond
)

// E11Run measures one configuration against the alternating workload:
// tuningName names a static operating point, or adaptive=true attaches one
// controller per node and lets the loop decide.
func E11Run(tuningName string, adaptive bool, cfg Config) (E11Result, error) {
	rungs, bursts := e11Shape(cfg)
	phases := []byte{'P', 'T', 'P', 'T'}

	var (
		rig  *Rig
		err  error
		done bool
		fail error

		phaseIdx   int
		phaseStart simnet.Time
		times      []simnet.Duration

		rungsDone int
		pingSeq   int
		pongSeq   int
		burstRecv int
	)
	burstTotal := e11Flows * e11BurstSize * bursts

	submit := func(node packet.NodeID, p *packet.Packet) {
		if err := rig.Engines[node].Submit(p); err != nil && fail == nil {
			fail = err
		}
	}
	sendPing := func() {
		submit(0, message(1, pingSeq, e11PingBytes, 0, 1))
		pingSeq++
	}

	var startPhase func()
	startPhase = func() {
		now := rig.Cl.Eng.Now()
		phaseStart = now
		switch phases[phaseIdx] {
		case 'P':
			rungsDone = 0
			sendPing()
		case 'T':
			burstRecv = 0
			for b := 0; b < bursts; b++ {
				b := b
				at := now.Add(simnet.Duration(b) * e11BurstGap)
				rig.Cl.Eng.At(at, "e11.burst", func() {
					for f := 0; f < e11Flows; f++ {
						flow := packet.FlowID(100*(phaseIdx+1) + 10 + f)
						for q := 0; q < e11BurstSize; q++ {
							submit(0, message(flow, b*e11BurstSize+q, e11PingBytes, 0, 1))
						}
					}
				})
			}
		}
	}
	endPhase := func() {
		times = append(times, rig.Cl.Eng.Now().Sub(phaseStart))
		phaseIdx++
		if phaseIdx == len(phases) {
			done = true
			return
		}
		startPhase()
	}
	onDeliver := func(node packet.NodeID, d proto.Deliverable) {
		if done || fail != nil {
			return
		}
		switch phases[phaseIdx] {
		case 'P':
			switch {
			case node == 1 && d.Pkt.Flow == 1:
				// Ping arrived: answer.
				submit(1, message(2, pongSeq, e11PingBytes, 1, 0))
				pongSeq++
			case node == 0 && d.Pkt.Flow == 2:
				// Pong arrived: rung complete.
				rungsDone++
				if rungsDone < rungs {
					sendPing()
				} else {
					endPhase()
				}
			}
		case 'T':
			if node == 1 {
				burstRecv++
				if burstRecv == burstTotal {
					endPhase()
				}
			}
		}
	}

	rig, err = NewRig(RigOptions{
		ID:        "E11",
		Profiles:  []caps.Caps{SingleChannel(caps.MX)},
		OnDeliver: onDeliver,
	})
	if err != nil {
		return E11Result{}, err
	}

	res := E11Result{Name: tuningName}
	var controllers []*control.Controller
	if adaptive {
		res.Name = "adaptive"
		for n := 0; n < 2; n++ {
			c, err := control.New(control.Options{
				Engine:   rig.Engines[packet.NodeID(n)],
				Runtime:  rig.Cl.Eng,
				Interval: 10 * simnet.Microsecond,
				HalfLife: 32 * simnet.Microsecond,
				Confirm:  2,
				Cooldown: 200 * simnet.Microsecond,
				HiRate:   1e6,
				LoRate:   500e3,
			})
			if err != nil {
				return E11Result{}, err
			}
			if err := c.Start(); err != nil {
				return E11Result{}, err
			}
			controllers = append(controllers, c)
		}
	} else {
		t, err := strategy.TuningByName(tuningName)
		if err != nil {
			return E11Result{}, err
		}
		// Statics go through control.Apply too: the baselines and the
		// controller configure engines by the identical sequence.
		for _, eng := range rig.Engines {
			if err := control.Apply(eng, t); err != nil {
				return E11Result{}, err
			}
		}
	}

	startPhase()
	rig.stepUntil(func() bool { return done || fail != nil })
	for _, c := range controllers {
		c.Stop()
		res.Retunes += uint64(len(c.Decisions()))
	}
	if fail != nil {
		return E11Result{}, fail
	}
	if !done {
		return E11Result{}, fmt.Errorf("exp: E11 stalled in phase %d (%c) after %v", phaseIdx, phases[phaseIdx], rig.Cl.Eng.Now())
	}
	res.PhaseTimes = times
	res.Total = rig.Cl.Eng.Now().Sub(0)
	res.Frames = rig.Cl.Stats.CounterValue("core.frames_posted")
	return res, nil
}

// E11All runs every registered static tuning plus the adaptive controller.
func E11All(cfg Config) ([]E11Result, error) {
	var out []E11Result
	for _, name := range strategy.TuningNames() {
		r, err := E11Run(name, false, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	r, err := E11Run("", true, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, r)
	return out, nil
}

func runE11(cfg Config) []*stats.Table {
	t := stats.NewTable("E11 — adaptive controller vs static tunings (alternating ping-pong / burst phases, MX 1ch)",
		"tuning", "pingpong1(µs)", "burst1(µs)", "pingpong2(µs)", "burst2(µs)", "total(µs)", "frames", "retunes")
	t.Caption = "the controller must track every phase within 10% of its best static tuning and win end-to-end"
	var retunes uint64
	for _, r := range must(E11All(cfg)) {
		row := []any{r.Name}
		for _, p := range r.PhaseTimes {
			row = append(row, p.Micros())
		}
		t.AddRowf(append(row, r.Total.Micros(), r.Frames, r.Retunes)...)
		retunes += r.Retunes
	}
	report("E11", func(r *Report) { r.Decisions = retunes })
	return []*stats.Table{t}
}
