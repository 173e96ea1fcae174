package cluster

import (
	"testing"

	"newmad/internal/chaos"
)

// TestChaosSoakRailsAndPartition is the resilience battery's -race soak:
// one run of ChaosScenario — rolling rail flaps and a full partition and
// heal on the 0~1 edge under the survivors' conglomerate, and node 2
// crashed mid-run. The assertions are total:
//
//   - exactly-once between the survivors: frames stranded by a break are
//     reclaimed and failed over, frames with no path are retained until
//     the heal, and the reassembler's dedupe absorbs ambiguous re-sends;
//   - what node 2 got out before its crash arrives as an in-order prefix
//     of each flow, every seq once;
//   - faults fired and the engines recovered from them: peer-downs were
//     observed, frames were failed over or reclaimed, and after the script
//     no 0~1 rail still reports its peer down;
//   - the executed schedule is the seed's script, event-for-event;
//   - telemetry rode along (the fleet's queue-wait histogram is non-empty)
//     and a clean run leaves no flight-recorder spool behind;
//   - the race detector stays quiet across the whole dance.
func TestChaosSoakRailsAndPartition(t *testing.T) {
	const seed = 1
	res, err := ChaosScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Duplicated != 0 {
		t.Fatalf("survivors' delivery broken: %d lost, %d duplicated of %d (spool: %s)",
			res.Lost, res.Duplicated, res.Msgs, res.SpoolDir)
	}
	if len(res.Bystander) != 2 {
		t.Fatalf("node 2 delivered on %d of its 2 flows before the crash", len(res.Bystander))
	}
	for flow, seqs := range res.Bystander {
		for seq, n := range seqs {
			if n != 1 {
				t.Fatalf("node 2 flow %d: seq %d delivered %d times (not a once-each prefix; spool: %s)",
					flow, seq, n, res.SpoolDir)
			}
		}
	}
	if res.PeerDowns == 0 {
		t.Fatal("scenario observed no peer-down events; the script did nothing")
	}
	if res.Failovers+res.Reclaimed == 0 {
		t.Fatalf("%d peer-downs but no failover activity", res.PeerDowns)
	}
	if res.StillDown != 0 {
		t.Fatalf("%d 0~1 rail ends still report their peer down after the last heal:\n%s",
			res.StillDown, res.Trace)
	}
	var want chaos.Trace
	for _, e := range res.Script.Sorted() {
		want.Record(e)
	}
	if d := want.Diff(res.Trace); d != "" {
		t.Fatalf("executed schedule is not seed %d's script: %s", seed, d)
	}
	if res.Fleet.Nodes != 3 {
		t.Fatalf("fleet roll-up covers %d of 3 nodes", res.Fleet.Nodes)
	}
	if res.Fleet.SpanTotal("queue_wait").Count() == 0 {
		t.Fatal("fleet queue-wait histogram empty after the run")
	}
	if res.SpoolDir != "" {
		t.Fatalf("clean run wrote an anomaly spool at %s", res.SpoolDir)
	}
	t.Logf("%d payloads in %v; %d peer-downs, %d failovers, %d reclaimed; node 2 got %d+%d out",
		res.Msgs, res.Completion, res.PeerDowns, res.Failovers, res.Reclaimed,
		len(res.Bystander[50]), len(res.Bystander[51]))
}
