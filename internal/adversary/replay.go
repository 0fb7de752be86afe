package adversary

import "dynring/internal/sim"

// BlockLog records which agent was denied its traversal in each round. It
// powers the Theorem 1 construction: an execution E recorded on a small
// ring is replayed on a ring of size 8·r(E) where it is indistinguishable
// to the agents, exposing unsound partial termination.
type BlockLog struct {
	// Blocked holds, per round, the id of the agent whose target edge was
	// removed, or -1.
	Blocked []int
}

// Recording wraps an inner adversary and logs which agent it blocked.
type Recording struct {
	// Inner provides the actual strategy.
	Inner sim.Adversary
	// Log receives one entry per round.
	Log *BlockLog
}

var _ sim.Adversary = (*Recording)(nil)

// Activate implements sim.Adversary.
func (r *Recording) Activate(t int, w *sim.World) []int {
	if r.Inner == nil {
		return w.AgentIDs()
	}
	return r.Inner.Activate(t, w)
}

// MissingEdge implements sim.Adversary.
func (r *Recording) MissingEdge(t int, w *sim.World, intents []sim.Intent) int {
	e := sim.NoEdge
	if r.Inner != nil {
		e = r.Inner.MissingEdge(t, w, intents)
	}
	blocked := -1
	if e != sim.NoEdge {
		for _, in := range intents {
			if in.Move && in.TargetEdge == e {
				blocked = in.Agent
				break
			}
		}
	}
	r.Log.Blocked = append(r.Log.Blocked, blocked)
	return e
}

// Replay reproduces a recorded block pattern on a different ring: in round
// t it removes the edge that the originally blocked agent now wants to
// traverse. Because the original adversary never blocked two agents in the
// same round, one edge removal per round suffices, and each agent's local
// experience matches the recorded execution as long as the agents stay
// apart.
type Replay struct {
	// Log is the recorded pattern.
	Log *BlockLog
}

var _ sim.Adversary = (*Replay)(nil)

// Activate implements sim.Adversary.
func (r *Replay) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (r *Replay) MissingEdge(t int, _ *sim.World, intents []sim.Intent) int {
	if t >= len(r.Log.Blocked) || r.Log.Blocked[t] < 0 {
		return sim.NoEdge
	}
	victim := r.Log.Blocked[t]
	for _, in := range intents {
		if in.Agent == victim && in.Move {
			return in.TargetEdge
		}
	}
	return sim.NoEdge
}
