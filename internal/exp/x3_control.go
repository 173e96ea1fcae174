package exp

import (
	"fmt"
	"time"

	"newmad/internal/cluster"
	"newmad/internal/control"
	"newmad/internal/simnet"
	"newmad/internal/stats"
)

// X3 — controller addendum (not a claim of the paper; added with
// internal/control).
//
// E11 proves the closed loop in virtual time, where telemetry is exact and
// sampling is free. X3 runs the same controller live: real TCP mesh
// sockets, wall-clock sampling through the same Runtime abstraction, idle
// and receive upcalls arriving from transport goroutines. The property
// under test is that the loop's *decisions* carry over — a sparse phase
// reads as the latency regime, a dense phase flips it to throughput, and
// the hysteresis/cooldown damping bounds the retune frequency on noisy
// wall-clock telemetry exactly as it does on the model.

// X3Result is the wall-clock controller run's outcome.
type X3Result struct {
	// Sparse/Dense are the wall durations of the two phases.
	Sparse, Dense time.Duration
	// SparseMsgs/DenseMsgs count the messages of each phase.
	SparseMsgs, DenseMsgs int
	// Decisions is the controller's applied-retune log.
	Decisions []control.Decision
	// SparseEndAt is the phase boundary on the runtime clock — the same
	// clock decision timestamps use, so decisions attribute to phases
	// without wall/runtime origin skew.
	SparseEndAt simnet.Time
	// Cooldown echoes the configured damping window.
	Cooldown time.Duration
	// FinalMode is the regime in effect at the end.
	FinalMode control.Mode
}

// x3Shape sizes the phases. The dense phase is duration-controlled, not
// count-controlled: the property under test is that a *sustained* high-
// rate stream flips the controller, and how many messages that takes
// depends on how fast the host's datapath drains them. denseFor must span
// the loop's reaction horizon (rate EWMA rise + Confirm samples) with
// margin; denseMin bounds the workload from below so the phase is dense on
// any host.
func x3Shape(cfg Config) (sparseMsgs int, sparseGap time.Duration, denseMin int, denseFor time.Duration) {
	if cfg.Quick {
		return 60, 2 * time.Millisecond, 8000, 150 * time.Millisecond
	}
	return 150, 2 * time.Millisecond, 30000, 400 * time.Millisecond
}

// X3Mesh boots a 2-node mesh cluster, attaches a controller to node 0's
// engine, and drives a sparse phase then a dense phase through it.
func X3Mesh(cfg Config) (X3Result, error) {
	sparseMsgs, sparseGap, denseMin, denseFor := x3Shape(cfg)

	c, err := newMeshRig(cluster.Options{Nodes: 2}, nil)
	if err != nil {
		return X3Result{}, err
	}
	defer c.Close()

	cooldown := 60 * time.Millisecond
	ctl, err := control.New(control.Options{
		Engine:   c.Engine(0),
		Runtime:  c.Runtime,
		Interval: simnet.FromWall(5 * time.Millisecond),
		HalfLife: simnet.FromWall(20 * time.Millisecond),
		Confirm:  2,
		Cooldown: simnet.FromWall(cooldown),
		HiRate:   20e3,
		LoRate:   2e3,
	})
	if err != nil {
		return X3Result{}, err
	}
	if err := ctl.Start(); err != nil {
		return X3Result{}, err
	}
	defer ctl.Stop()

	res := X3Result{Cooldown: cooldown, SparseMsgs: sparseMsgs}
	eng := c.Engine(0)
	// Sparse phase: one small message per gap — hundreds per second, well
	// under LoRate: the loop must settle on the latency tuning.
	start := time.Now()
	for q := 0; q < sparseMsgs; q++ {
		if err := eng.Submit(message(1, q, 64, 0, 1)); err != nil {
			return X3Result{}, err
		}
		eng.Flush()
		time.Sleep(sparseGap)
	}
	res.Sparse = time.Since(start)
	res.SparseEndAt = c.Runtime.Now()

	// Dense phase: a back-to-back stream — submission as fast as the engine
	// accepts it, far beyond HiRate — sustained for denseFor so the loop's
	// EWMA and confirmation samples see the regime however fast the host
	// drains the backlog (at least denseMin messages either way).
	start = time.Now()
	denseMsgs := 0
	for denseMsgs < denseMin || time.Since(start) < denseFor {
		for b := 0; b < 512; b++ {
			if err := eng.Submit(message(2, denseMsgs, 256, 0, 1)); err != nil {
				return X3Result{}, err
			}
			denseMsgs++
		}
	}
	eng.Flush()
	res.DenseMsgs = denseMsgs
	if err := c.wait(sparseMsgs+denseMsgs, 60*time.Second); err != nil {
		return X3Result{}, err
	}
	res.Dense = time.Since(start)

	// Stop before snapshotting (idempotent with the deferred Stop): the
	// decision log and the final mode must describe the same instant, not
	// race a still-ticking loop.
	ctl.Stop()
	res.Decisions = ctl.Decisions()
	res.FinalMode = ctl.Mode()
	return res, nil
}

func runX3(cfg Config) []*stats.Table {
	res := must(X3Mesh(cfg))
	t := stats.NewTable("X3 — adaptive controller live on 2-node TCP mesh sockets",
		"phase", "msgs", "wall(ms)", "regime decisions")
	t.Caption = fmt.Sprintf("retunes damped to at most one per %v cooldown; final mode %q", res.Cooldown, res.FinalMode)
	decs := func(lo, hi simnet.Time) string {
		out := ""
		for _, d := range res.Decisions {
			if d.At < lo || d.At >= hi {
				continue
			}
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s→%s@%dms", d.From, d.To,
				simnet.ToWall(simnet.Duration(d.At)).Milliseconds())
		}
		if out == "" {
			return "-"
		}
		return out
	}
	t.AddRowf("sparse", res.SparseMsgs, float64(res.Sparse.Microseconds())/1e3, decs(0, res.SparseEndAt))
	t.AddRowf("dense", res.DenseMsgs, float64(res.Dense.Microseconds())/1e3, decs(res.SparseEndAt, simnet.Infinity))
	report("X3", func(r *Report) { r.Decisions = uint64(len(res.Decisions)) })
	return []*stats.Table{t}
}
