package adversary

import "dynring/internal/sim"

// Figure2 is the tight schedule of Figure 2, under which Algorithm
// KnownNNoChirality needs exactly 3n−6 rounds: agent 0 must start at node 0
// and agent 1 at node 1, both with private left = clockwise (orientation
// CCW), on a ring of size N with the bound known exactly (N = n).
//
// The schedule (0-indexed rounds): rounds 0..n−4 remove agent 0's forward
// edge (edge 0), pinning it while agent 1 walks to node n−2; from round n−3
// on, remove edge n−2, pinning agent 1 there while agent 0 walks over,
// catches it, bounces and explores the rest, finishing at the end of round
// 3n−7 and terminating in round 3n−6.
type Figure2 struct {
	// N is the ring size (= the agents' known bound).
	N int
}

var _ sim.Adversary = Figure2{}

// Starts returns the initial agent positions the schedule assumes.
func (Figure2) Starts() []int { return []int{0, 1} }

// Activate implements sim.Adversary.
func (Figure2) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (f Figure2) MissingEdge(t int, _ *sim.World, _ []sim.Intent) int {
	if t <= f.N-4 {
		return 0
	}
	return f.N - 2
}

// NextChange implements sim.ScheduledAdversary: the schedule is stateless
// and switches edges exactly once, at round N−3.
func (f Figure2) NextChange(t int) int {
	if t < f.N-3 {
		return f.N - 3
	}
	return sim.NeverChanges
}
