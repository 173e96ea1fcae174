// Chaos: deterministic fault injection against a live multi-rail cluster.
//
// Three nodes, two wire-paced TCP rails each, carry a conglomerate
// workload while a scripted scenario — generated from a seed — rolls rail
// flaps across the surviving pair, partitions and heals it once, and
// crashes the bystander node mid-run. It is the one socket chaos scenario
// (cluster.ChaosScenario); the -race soak in internal/cluster asserts on
// the same run this prints.
// A rendezvous payload leaves as one direct RData frame: socket rails send
// no RTS/CTS. The engines fight back with the machinery this
// repository's chaos subsystem added: frames reclaimed from dead
// connections — a direct RData caught on a dying rail included — fail over
// onto surviving rails, work the rail policy placed on a rail that lost its
// peer is taken by a rail that still reaches it, and the reassembler's
// sequence dedupe keeps delivery exactly-once.
//
// The run prints the executed fault schedule (identical on every run with
// the same -seed — that is the point) and the recovery accounting.
//
//	go run ./examples/chaos
//	go run ./examples/chaos -seed 7   # a different, equally reproducible storm
package main

import (
	"flag"
	"fmt"
	"log"

	"newmad/internal/cluster"
)

func main() {
	seed := flag.Uint64("seed", 1, "fault schedule seed")
	flag.Parse()

	res, err := cluster.ChaosScenario(*seed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("executed fault schedule (seed %d — rerun to get the identical storm):\n\n", *seed)
	fmt.Print(res.Trace.String())
	fmt.Printf("\nworkload: %d payloads, %.1f MB between the surviving pair\n",
		res.Msgs, float64(res.Bytes)/1e6)
	fmt.Printf("completed in %v: %d lost, %d duplicated\n", res.Completion.Round(1e6), res.Lost, res.Duplicated)
	fmt.Printf("bystander: %d + %d payloads out to the survivors before its crash\n",
		len(res.Bystander[50]), len(res.Bystander[51]))
	qwait := res.Fleet.SpanTotal("queue_wait")
	fmt.Printf("queue wait: p50 %.0f µs, p99 %.0f µs over %d payloads\n",
		qwait.Quantile(0.50)/1e3, qwait.Quantile(0.99)/1e3, qwait.Count())
	fmt.Printf("\nfaults:    %d rail peer-down events\n", res.PeerDowns)
	fmt.Printf("recovery:  %d failovers, %d frames reclaimed from dead rails\n",
		res.Failovers, res.Reclaimed)
	if res.Lost != 0 || res.Duplicated != 0 || res.SpoolDir != "" {
		log.Fatalf("delivery was not exactly-once — this is a bug (flight recorders: %s)", res.SpoolDir)
	}
	fmt.Println("\nevery payload arrived exactly once.")
}
