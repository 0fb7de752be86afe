// Flaky token ring: an operations-flavoured scenario. A ring of 16
// switches has one permanently flapping link (say, a damaged fibre between
// switches 4 and 5), and the NOC rack (switch 0) is visually distinctive —
// a landmark. Two audit probes that cannot talk to each other must each
// walk the ring so that every switch gets inspected, and must know when to
// stop.
//
// This is exactly live exploration of a 1-interval-connected ring with a
// landmark: LandmarkWithChirality guarantees full inspection and explicit
// termination of both probes in O(n) rounds even though the probes never
// learn the failure pattern in advance. The run's space–time diagram shows
// the two probes bouncing off the dead link and handshaking at the end.
package main

import (
	"fmt"
	"os"

	"dynring"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flaky_token_ring:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		switches = 16
		deadLink = 4 // the link between switches 4 and 5 never comes up
		noc      = 0 // the NOC rack is the landmark
	)
	rec := dynring.NewTrace(switches)
	res, err := dynring.Scenario{
		Size:         switches,
		Landmark:     noc,
		Algorithm:    "LandmarkWithChirality",
		Starts:       []int{2, 10}, // probes plugged in at arbitrary racks
		NewAdversary: dynring.Fixed(dynring.KeepEdgeRemoved(deadLink)),
		Observer:     rec,
	}.Run()
	if err != nil {
		return err
	}

	fmt.Printf("audit of %d switches with link %d-%d dead:\n\n", switches, deadLink, deadLink+1)
	if err := rec.Render(os.Stdout, dynring.TraceOptions{Landmark: noc, MaxRows: 48}); err != nil {
		return err
	}
	fmt.Printf("\nall switches inspected: %v (finished in round %d)\n", res.Explored, res.ExploredRound)
	fmt.Printf("probes stopped:         %v (both know the audit is complete)\n", res.TerminatedAt)
	fmt.Printf("hops walked:            %v\n", res.Moves)

	if !res.Explored || res.Terminated != 2 {
		return fmt.Errorf("audit incomplete: %+v", res)
	}
	return nil
}
