package adversary

import (
	"strconv"

	"dynring/internal/ring"
	"dynring/internal/sim"
)

// Alternation is the strategy of Theorem 10 (PT model, two agents without
// chirality): it works on one agent at a time, confining each to a small
// window of nodes by blocking every attempt to leave, and switching to the
// other agent when the active one reverses or insists on the same exit for
// `Patience` rounds ("decides to permanently wait"). When both agents end
// up waiting on the two ports of the same edge, the strategy locks that
// edge forever — the proof's final configuration.
//
// Unlike the proof, a simulator cannot re-wire the ring retroactively, so
// the lock requires the agents' waiting ports to meet on one edge; with the
// window geometry chosen by the Theorem 10 experiment this is what happens.
// If a protocol escapes (window growth), the run reports it honestly.
type Alternation struct {
	// Patience is the number of consecutive blocked exit attempts after
	// which the active agent is declared permanently waiting.
	Patience int

	window     map[int]bool
	discovered []bool
	turn       int
	push       int
	lockEdge   int
	blockNext  int
	inited     bool
}

// NewAlternation returns a fresh strategy; patience must be ≥ 1.
func NewAlternation(patience int) *Alternation {
	if patience < 1 {
		patience = 1
	}
	return &Alternation{Patience: patience, lockEdge: sim.NoEdge, blockNext: sim.NoEdge}
}

var _ sim.Adversary = (*Alternation)(nil)

// Activate implements sim.Adversary.
func (a *Alternation) Activate(_ int, w *sim.World) []int {
	if !a.inited {
		a.window = make(map[int]bool, 4)
		a.discovered = make([]bool, w.NumAgents())
		for i := 0; i < w.NumAgents(); i++ {
			a.window[w.AgentNode(i)] = true
		}
		a.inited = true
	}
	if a.lockEdge != sim.NoEdge {
		a.blockNext = a.lockEdge
		return w.AgentIDs()
	}
	if w.AgentTerminated(a.turn) {
		a.turn = a.other(w)
	}

	sleeper := a.other(w)
	sleeperExit := a.exitPort(w, sleeper)
	turnExit := a.peekExit(w, a.turn)

	switch {
	case sleeperExit != sim.NoEdge && turnExit != sim.NoEdge && sleeperExit == turnExit:
		// Both agents want the same edge from opposite sides: lock it.
		a.lockEdge = sleeperExit
		a.blockNext = sleeperExit
		return w.AgentIDs()
	case sleeperExit != sim.NoEdge && turnExit != sim.NoEdge:
		// Cannot block both exits: keep the sleeper pinned and let it be
		// the only active agent (it stays blocked); the pusher sleeps in
		// the interior.
		a.blockNext = sleeperExit
		return []int{sleeper}
	case sleeperExit != sim.NoEdge:
		// Protect the sleeping agent from passive transport out of the
		// window; the active agent moves internally.
		a.blockNext = sleeperExit
		return []int{a.turn}
	case turnExit != sim.NoEdge:
		a.blockNext = turnExit
		a.push++
		cur := a.turn
		if a.push > a.Patience {
			// Declared permanently waiting: switch to the other agent.
			a.turn = sleeper
			a.push = 0
		}
		return []int{cur}
	default:
		a.blockNext = sim.NoEdge
		a.push = 0
		return []int{a.turn}
	}
}

// MissingEdge implements sim.Adversary.
func (a *Alternation) MissingEdge(_ int, _ *sim.World, _ []sim.Intent) int {
	return a.blockNext
}

// other returns the id of the live agent that is not a.turn (two-agent
// strategy; with more agents it returns the next live id).
func (a *Alternation) other(w *sim.World) int {
	for i := 1; i <= w.NumAgents(); i++ {
		id := (a.turn + i) % w.NumAgents()
		if !w.AgentTerminated(id) {
			return id
		}
	}
	return a.turn
}

// exitPort returns the edge of agent id's occupied port if that edge leaves
// the window, else NoEdge.
func (a *Alternation) exitPort(w *sim.World, id int) int {
	on, dir := w.AgentOnPort(id)
	if !on {
		return sim.NoEdge
	}
	return a.exitEdge(w, id, w.AgentNode(id), dir)
}

// peekExit returns the edge agent id would try to leave the window through
// if activated now, else NoEdge. First moves extend the window instead
// (each agent's window is its start node plus the first node it heads to).
func (a *Alternation) peekExit(w *sim.World, id int) int {
	in, err := w.PeekGlobal(id)
	if err != nil || !in.Move {
		return sim.NoEdge
	}
	return a.exitEdge(w, id, in.From, in.Dir)
}

func (a *Alternation) exitEdge(w *sim.World, id, from int, dir ring.GlobalDir) int {
	target := w.Ring().Neighbor(from, dir)
	if a.window[target] {
		return sim.NoEdge
	}
	if !a.discovered[id] {
		// The agent's first movement defines the second node of its
		// window (u' / v' in the proof).
		a.window[target] = true
		a.discovered[id] = true
		return sim.NoEdge
	}
	return w.Ring().Edge(from, dir)
}

// Fingerprint implements sim.Fingerprinter. Once the lock engages, the
// configuration is stationary and cycles are certified.
func (a *Alternation) Fingerprint() string {
	return "alt:" + strconv.Itoa(a.turn) + ":" + strconv.Itoa(a.push) + ":" + strconv.Itoa(a.lockEdge)
}
