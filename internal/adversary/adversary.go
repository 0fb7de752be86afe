package adversary

import "dynring/internal/sim"

// Func adapts plain functions to sim.Adversary. Nil fields mean "activate
// everyone" and "remove nothing".
type Func struct {
	ActivateFunc func(t int, w *sim.World) []int
	EdgeFunc     func(t int, w *sim.World, intents []sim.Intent) int
}

var _ sim.Adversary = Func{}

// Activate implements sim.Adversary.
func (f Func) Activate(t int, w *sim.World) []int {
	if f.ActivateFunc == nil {
		return w.AgentIDs()
	}
	return f.ActivateFunc(t, w)
}

// MissingEdge implements sim.Adversary.
func (f Func) MissingEdge(t int, w *sim.World, intents []sim.Intent) int {
	if f.EdgeFunc == nil {
		return sim.NoEdge
	}
	return f.EdgeFunc(t, w, intents)
}

// None removes no edge and activates everyone: a static ring.
type None struct{}

var _ sim.Adversary = None{}

// Activate implements sim.Adversary.
func (None) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (None) MissingEdge(int, *sim.World, []sim.Intent) int { return sim.NoEdge }

// Fingerprint implements sim.Fingerprinter (the strategy is stateless).
func (None) Fingerprint() string { return "none" }

// NextChange implements sim.ScheduledAdversary: a static ring never changes.
func (None) NextChange(int) int { return sim.NeverChanges }

// PersistentEdge removes the same edge in every round, the simplest legal
// dynamic behaviour; Theorem 11's partial-termination discussion and the
// ET analyses build on it.
type PersistentEdge struct {
	// Edge is the edge to keep removed.
	Edge int
}

var _ sim.Adversary = PersistentEdge{}

// Activate implements sim.Adversary.
func (p PersistentEdge) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (p PersistentEdge) MissingEdge(int, *sim.World, []sim.Intent) int { return p.Edge }

// Fingerprint implements sim.Fingerprinter.
func (p PersistentEdge) Fingerprint() string { return "persistent" }

// NextChange implements sim.ScheduledAdversary: the same edge is removed in
// every round, forever.
func (p PersistentEdge) NextChange(int) int { return sim.NeverChanges }

// RandomEdge removes a uniformly random edge with probability P each round
// (otherwise none). It activates every agent; combine with RandomActivation
// for SSYNC stress tests.
type RandomEdge struct {
	stream
	// P is the per-round removal probability in [0,1].
	P float64
}

// NewRandomEdge returns a seeded random-edge adversary.
func NewRandomEdge(p float64, seed int64) *RandomEdge {
	return &RandomEdge{P: p, stream: stream{seed: seed}}
}

var _ sim.Adversary = (*RandomEdge)(nil)

// Activate implements sim.Adversary.
func (r *RandomEdge) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (r *RandomEdge) MissingEdge(_ int, w *sim.World, _ []sim.Intent) int {
	rng := r.rand()
	if rng.Float64() >= r.P {
		return sim.NoEdge
	}
	return rng.Intn(w.Ring().Size())
}

// RandomActivation wraps another adversary's edge strategy with a random
// fair activation schedule: each agent is active independently with
// probability P, with a guaranteed non-empty set.
type RandomActivation struct {
	stream
	ids []int // Activate's result, reused across rounds
	// Edges provides the missing-edge strategy (nil: never remove).
	Edges sim.Adversary
	// P is the per-agent activation probability in (0,1].
	P float64
}

// NewRandomActivation returns a seeded random activation wrapper.
func NewRandomActivation(p float64, seed int64, edges sim.Adversary) *RandomActivation {
	return &RandomActivation{P: p, stream: stream{seed: seed}, Edges: edges}
}

var _ sim.Adversary = (*RandomActivation)(nil)

// Activate implements sim.Adversary.
func (r *RandomActivation) Activate(_ int, w *sim.World) []int {
	rng := r.rand()
	ids := r.ids[:0]
	live := 0
	for i := 0; i < w.NumAgents(); i++ {
		if w.AgentTerminated(i) {
			continue
		}
		live++
		if rng.Float64() < r.P {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 && live > 0 {
		// Guarantee progress: wake one live agent uniformly.
		k := rng.Intn(live)
		for i := 0; ; i++ {
			if w.AgentTerminated(i) {
				continue
			}
			if k == 0 {
				ids = append(ids, i)
				break
			}
			k--
		}
	}
	r.ids = ids
	return ids
}

// MissingEdge implements sim.Adversary.
func (r *RandomActivation) MissingEdge(t int, w *sim.World, intents []sim.Intent) int {
	if r.Edges == nil {
		return sim.NoEdge
	}
	return r.Edges.MissingEdge(t, w, intents)
}

// TargetAgent realizes Observation 1: it always removes the edge its target
// agent is about to traverse, so a single agent can never leave its
// starting node's reach.
type TargetAgent struct {
	// Agent is the victim's id.
	Agent int
}

var _ sim.Adversary = TargetAgent{}

// Activate implements sim.Adversary.
func (a TargetAgent) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (a TargetAgent) MissingEdge(_ int, w *sim.World, intents []sim.Intent) int {
	for _, in := range intents {
		if in.Agent == a.Agent && in.Move {
			return in.TargetEdge
		}
	}
	// The victim may be asleep on a port: keep its edge away too.
	if on, dir := w.AgentOnPort(a.Agent); on {
		return w.Ring().Edge(w.AgentNode(a.Agent), dir)
	}
	return sim.NoEdge
}

// Fingerprint implements sim.Fingerprinter.
func (a TargetAgent) Fingerprint() string { return "target" }

// NextChange implements sim.ScheduledAdversary: the strategy is a stateless
// pure function of the configuration (the victim's position and intent).
func (a TargetAgent) NextChange(int) int { return sim.NeverChanges }

// PreventMeeting realizes Observation 2: with two agents starting at
// distinct nodes it removes an edge only when the agents would otherwise
// end the round co-located, and never blocks both agents in the same round.
// Crossings over the same edge are allowed (the model makes them
// undetectable).
type PreventMeeting struct{}

var _ sim.Adversary = PreventMeeting{}

// Activate implements sim.Adversary.
func (PreventMeeting) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (PreventMeeting) MissingEdge(_ int, w *sim.World, intents []sim.Intent) int {
	// Tentative next nodes assuming no removal.
	next := make(map[int]int, w.NumAgents())
	for i := 0; i < w.NumAgents(); i++ {
		next[i] = w.AgentNode(i)
	}
	movers := make(map[int]sim.Intent, len(intents))
	for _, in := range intents {
		if in.Move {
			next[in.Agent] = w.Ring().Neighbor(in.From, in.Dir)
			movers[in.Agent] = in
		}
	}
	// Sleeping agents on ports may be transported in PT.
	if w.Model() == sim.SSyncPT {
		for i := 0; i < w.NumAgents(); i++ {
			if _, isActiveMover := movers[i]; isActiveMover {
				continue
			}
			if on, dir := w.AgentOnPort(i); on {
				next[i] = w.Ring().Neighbor(w.AgentNode(i), dir)
				movers[i] = sim.Intent{
					Agent: i, From: w.AgentNode(i), Move: true, Dir: dir,
					TargetEdge: w.Ring().Edge(w.AgentNode(i), dir),
				}
			}
		}
	}
	for i := 0; i < w.NumAgents(); i++ {
		for j := i + 1; j < w.NumAgents(); j++ {
			if next[i] != next[j] {
				continue
			}
			// Block one of the movers involved; at least one of the two
			// moves (otherwise they were already co-located).
			if in, ok := movers[i]; ok {
				return in.TargetEdge
			}
			if in, ok := movers[j]; ok {
				return in.TargetEdge
			}
		}
	}
	return sim.NoEdge
}

// Fingerprint implements sim.Fingerprinter.
func (PreventMeeting) Fingerprint() string { return "prevent-meeting" }

// NextChange implements sim.ScheduledAdversary: the strategy is a stateless
// pure function of the configuration.
func (PreventMeeting) NextChange(int) int { return sim.NeverChanges }

// FrontierGuard realizes the move lower bounds of Theorems 13 and 15 and
// the growing-δ run of Figure 15: among the agents about to reach an
// unvisited node it blocks the one with the largest id, so the designated
// runner is bounced at the coverage frontier while the pinned agent gains
// one node per excursion; everyone else's frontier moves are blocked
// outright. Against the PT algorithms this elicits Θ(N·n) ⊆ Ω(N·n)
// traversals.
type FrontierGuard struct{}

var _ sim.Adversary = FrontierGuard{}

// Activate implements sim.Adversary.
func (FrontierGuard) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (FrontierGuard) MissingEdge(_ int, w *sim.World, intents []sim.Intent) int {
	best := sim.NoEdge
	bestID := -1
	for _, in := range intents {
		if !in.Move {
			continue
		}
		target := w.Ring().Neighbor(in.From, in.Dir)
		if !w.Visited(target) && in.Agent > bestID {
			bestID = in.Agent
			best = in.TargetEdge
		}
	}
	return best
}

// Fingerprint implements sim.Fingerprinter.
func (FrontierGuard) Fingerprint() string { return "frontier-guard" }

// NextChange implements sim.ScheduledAdversary: the strategy is a stateless
// pure function of the configuration (intents and the coverage frontier).
func (FrontierGuard) NextChange(int) int { return sim.NeverChanges }

// GreedyBlocker is a heuristic worst-case search adversary used in
// ablations: it always removes the edge whose traversal would grow coverage
// (ties: the lowest mover id), starving exploration as long as possible.
type GreedyBlocker struct{}

var _ sim.Adversary = GreedyBlocker{}

// Activate implements sim.Adversary.
func (GreedyBlocker) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary.
func (GreedyBlocker) MissingEdge(_ int, w *sim.World, intents []sim.Intent) int {
	for _, in := range intents {
		if !in.Move {
			continue
		}
		if !w.Visited(w.Ring().Neighbor(in.From, in.Dir)) {
			return in.TargetEdge
		}
	}
	return sim.NoEdge
}

// Fingerprint implements sim.Fingerprinter.
func (GreedyBlocker) Fingerprint() string { return "greedy" }

// NextChange implements sim.ScheduledAdversary: the strategy is a stateless
// pure function of the configuration.
func (GreedyBlocker) NextChange(int) int { return sim.NeverChanges }
