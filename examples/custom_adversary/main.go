// Custom adversary: the Adversary interface is public, so worst cases
// beyond the built-in suite are easy to express. This program implements a
// "rolling maintenance" adversary — every w rounds the next link in the
// ring goes down for maintenance — plus a nastier variant that always takes
// down a link in front of the most advanced agent, and compares how the
// KnownNNoChirality explorer (Theorem 3) copes: it terminates at exactly
// 3N−6 rounds either way, as the paper guarantees.
package main

import (
	"fmt"
	"os"

	"dynring"
)

// rollingMaintenance takes the links down one after another, each for a
// window of w rounds.
type rollingMaintenance struct {
	w int
}

func (m rollingMaintenance) Activate(_ int, w *dynring.World) []int {
	ids := make([]int, w.NumAgents())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (m rollingMaintenance) MissingEdge(t int, w *dynring.World, _ []dynring.Intent) int {
	return (t / m.w) % w.Ring().Size()
}

// chaseLeader always removes the edge the currently most-travelled agent
// wants to cross, trying to starve the exploration's fastest worker.
type chaseLeader struct{}

func (chaseLeader) Activate(_ int, w *dynring.World) []int {
	ids := make([]int, w.NumAgents())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (chaseLeader) MissingEdge(_ int, w *dynring.World, intents []dynring.Intent) int {
	best, bestMoves := dynring.NoEdge, -1
	for _, in := range intents {
		if in.Move && w.AgentMoves(in.Agent) > bestMoves {
			bestMoves = w.AgentMoves(in.Agent)
			best = in.TargetEdge
		}
	}
	return best
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "custom_adversary:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 14
	for _, tc := range []struct {
		name string
		adv  dynring.Adversary
	}{
		{name: "rolling maintenance (w=4)", adv: rollingMaintenance{w: 4}},
		{name: "chase the leader", adv: chaseLeader{}},
	} {
		res, err := dynring.Scenario{
			Size:         n,
			Landmark:     dynring.NoLandmark,
			Algorithm:    "KnownNNoChirality",
			Orients:      []dynring.GlobalDir{dynring.CW, dynring.CCW}, // no chirality needed
			NewAdversary: dynring.Fixed(tc.adv),
		}.Run()
		if err != nil {
			return err
		}
		fmt.Printf("%-28s explored=%v in round %d, both terminated at %v (3N-6 = %d)\n",
			tc.name, res.Explored, res.ExploredRound, res.TerminatedAt, 3*n-6)
		if !res.Explored || res.Terminated != 2 {
			return fmt.Errorf("%s: exploration failed: %+v", tc.name, res)
		}
	}
	return nil
}
