package exp

import (
	"testing"
	"time"

	"newmad/internal/cluster"
	"newmad/internal/control"
	"newmad/internal/simnet"
)

// The socket addenda X3 and X5 left the catalog for the cluster soaks; the
// shapes below keep their claims asserted from this package, with the
// defaults the soaks do not use: X3 runs the controller with the registry's
// own tunings on a one-rail mesh, and X5 replays the chaos scenario twice
// from one seed.

// TestX3ShapeControllerLiveOnMesh runs the adaptive controller live on a
// 2-node TCP mesh: wall-clock sampling through the cluster runtime, upcalls
// from transport goroutines. A sparse phase (one small message per 2 ms,
// under LoRate) then a dense one (a back-to-back stream sustained for
// denseFor, far over HiRate): the loop must retune, the dense phase must
// drive it to throughput, and consecutive decisions stay a cooldown apart.
func TestX3ShapeControllerLiveOnMesh(t *testing.T) {
	const (
		sparseMsgs = 60
		sparseGap  = 2 * time.Millisecond
		denseMin   = 8000
		denseFor   = 150 * time.Millisecond
		cooldown   = 60 * time.Millisecond
	)
	c, err := newMeshRig(cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	eng := c.Engine(0)
	ctl, err := control.New(control.Options{
		Engine:   eng,
		Runtime:  c.Runtime,
		Interval: simnet.FromWall(5 * time.Millisecond),
		HalfLife: simnet.FromWall(20 * time.Millisecond),
		Confirm:  2,
		Cooldown: simnet.FromWall(cooldown),
		HiRate:   20e3,
		LoRate:   2e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	for q := 0; q < sparseMsgs; q++ {
		if err := eng.Submit(message(1, q, 64, 0, 1)); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		time.Sleep(sparseGap)
	}
	denseFrom := c.Runtime.Now() // decisions share the runtime clock

	denseMsgs := 0
	for start := time.Now(); denseMsgs < denseMin || time.Since(start) < denseFor; {
		for b := 0; b < 512; b++ {
			if err := eng.Submit(message(2, denseMsgs, 256, 0, 1)); err != nil {
				t.Fatal(err)
			}
			denseMsgs++
		}
	}
	eng.Flush()
	if err := c.wait(sparseMsgs+denseMsgs, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	ctl.Stop()

	ds := ctl.Decisions()
	if len(ds) == 0 {
		t.Fatal("controller issued no retune decisions on the live mesh")
	}
	dense := false
	for i, d := range ds {
		dense = dense || d.At >= denseFrom && control.Mode(d.To) == control.ModeThroughput
		if i > 0 {
			if gap := simnet.ToWall(d.At.Sub(ds[i-1].At)); gap < cooldown {
				t.Errorf("decisions %d and %d only %v apart, cooldown is %v", i-1, i, gap, cooldown)
			}
		}
	}
	if !dense {
		t.Errorf("dense phase never drove the controller to throughput (decisions: %v)", ds)
	}
}

// TestX5ShapeChaosExactlyOnceAndReplayable runs cluster.ChaosScenario twice
// from the same seed: both runs deliver the survivors' conglomerate exactly
// once through the injected failures, and the two executed fault schedules
// are identical event-for-event.
func TestX5ShapeChaosExactlyOnceAndReplayable(t *testing.T) {
	var runs [2]cluster.ChaosResult
	for i := range runs {
		res, err := cluster.ChaosScenario(quick.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lost != 0 || res.Duplicated != 0 {
			t.Fatalf("run %d: delivery broken: %d lost, %d duplicated of %d (spool: %s)",
				i, res.Lost, res.Duplicated, res.Msgs, res.SpoolDir)
		}
		if res.PeerDowns == 0 {
			t.Fatalf("run %d: scenario injected no rail failures", i)
		}
		if res.Failovers+res.Reclaimed == 0 {
			t.Fatalf("run %d: %d peer-downs but no failover activity", i, res.PeerDowns)
		}
		if res.SpoolDir != "" {
			t.Fatalf("run %d: clean run wrote an anomaly spool at %s", i, res.SpoolDir)
		}
		runs[i] = res
	}
	if d := runs[0].Trace.Diff(runs[1].Trace); d != "" {
		t.Fatalf("fault schedule not replayable from seed %d: %s", quick.Seed, d)
	}
}
