package adversary

import (
	"strconv"

	"dynring/internal/sim"
)

// This file holds the dynamics-model zoo: parameter-bearing adversary
// families beyond the paper's 1-interval-connected single-edge strategies.
//
//   - TInterval strengthens 1-interval connectivity to (phase-aligned)
//     T-interval connectivity: the missing edge is re-drawn only every T
//     rounds, so within each aligned window of T rounds the surviving
//     spanning path is stable (Kuhn–Lynch–Oshman's T-interval connectivity,
//     the synchrony axis studied by Mandal–Molla–Moses 2020).
//   - CappedRemoval weakens it to "at most r missing edges per round"
//     (capped removal): with r ≥ 2 the ring may temporarily disconnect,
//     which is exactly what the 1-interval model forbids.
//   - Recurrent (see BoundedBlocking in recurrent.go) bounds for how long
//     any one edge may stay missing.

// TInterval holds each missing-edge choice for T consecutive rounds: at the
// start of every aligned phase [jT, (j+1)T) it draws one edge uniformly at
// random from its seeded source and removes that edge — and no other — for
// the whole phase. The schedule therefore satisfies phase-aligned T-interval
// connectivity: the ring minus a single edge is a spanning path, and that
// path is stable for the T rounds of each phase. T = 1 degenerates to an
// always-removing single-edge adversary re-drawn every round.
type TInterval struct {
	stream
	// T is the phase length in rounds; it must be ≥ 1.
	T int

	phase int // 1 + index of the phase edge was drawn for; 0 = none yet
	edge  int
}

// NewTInterval returns a seeded T-interval schedule; t below 1 is clamped
// to 1.
func NewTInterval(t int, seed int64) *TInterval {
	if t < 1 {
		t = 1
	}
	return &TInterval{T: t, stream: stream{seed: seed}, edge: sim.NoEdge}
}

var _ sim.Adversary = (*TInterval)(nil)

// Activate implements sim.Adversary.
func (a *TInterval) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary: the phase edge, re-drawn whenever
// round t enters a new aligned phase.
func (a *TInterval) MissingEdge(t int, w *sim.World, _ []sim.Intent) int {
	if p := t/a.T + 1; p != a.phase {
		a.phase = p
		a.edge = a.rand().Intn(w.Ring().Size())
	}
	return a.edge
}

// NextChange implements sim.ScheduledAdversary: the next aligned phase
// boundary, where the edge is re-drawn. Within a phase MissingEdge returns
// the stored edge without touching the rng or any other state, so the
// purity window contract holds. Leaping never skips a boundary round, so
// the rng advances exactly once per phase — the same draw sequence as the
// slow path.
func (a *TInterval) NextChange(t int) int { return (t/a.T + 1) * a.T }

// CappedRemoval removes up to R edges per round — the capped-removal
// relaxation of 1-interval connectivity, under which the ring may
// temporarily disconnect. The strategy is the multi-edge generalization of
// GreedyBlocker: it blocks the traversals that would reach unvisited nodes,
// lowest mover id first, up to R distinct edges per round. R = 1 is exactly
// GreedyBlocker. The strategy is deterministic and stateless, so runs with
// it support configuration-cycle certificates.
type CappedRemoval struct {
	// R is the maximum number of edges missing in any one round; it must
	// be ≥ 1.
	R int
}

var _ sim.MultiAdversary = CappedRemoval{}

// Activate implements sim.Adversary.
func (c CappedRemoval) Activate(_ int, w *sim.World) []int { return w.AgentIDs() }

// MissingEdge implements sim.Adversary (the r=1 behaviour); the engine
// prefers MissingEdges.
func (c CappedRemoval) MissingEdge(t int, w *sim.World, intents []sim.Intent) int {
	return GreedyBlocker{}.MissingEdge(t, w, intents)
}

// MissingEdges implements sim.MultiAdversary: the target edges of up to R
// coverage-growing movers, in intent (ascending id) order.
func (c CappedRemoval) MissingEdges(_ int, w *sim.World, intents []sim.Intent, buf []int) []int {
	limit := c.R
	if limit < 1 {
		limit = 1
	}
	for _, in := range intents {
		if len(buf) >= limit {
			break
		}
		if !in.Move || w.Visited(w.Ring().Neighbor(in.From, in.Dir)) {
			continue
		}
		dup := false
		for _, e := range buf {
			if e == in.TargetEdge {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, in.TargetEdge)
		}
	}
	return buf
}

// Fingerprint implements sim.Fingerprinter (the strategy is stateless).
func (c CappedRemoval) Fingerprint() string { return "capped:" + strconv.Itoa(c.R) }

// NextChange implements sim.ScheduledAdversary: the strategy is a stateless
// pure function of the configuration.
func (c CappedRemoval) NextChange(int) int { return sim.NeverChanges }

// NewRecurrent returns the recurrent(w) zoo adversary: greedy blocking
// constrained so that no edge stays missing for more than w consecutive
// rounds — every edge reappears at least once in any window of w+1 rounds
// (the δ-recurrent dynamics of Ilcinkas–Wade, δ = w). It is BoundedBlocking
// over GreedyBlocker under its canonical zoo label.
func NewRecurrent(w int) *BoundedBlocking {
	return NewBoundedBlocking(GreedyBlocker{}, w)
}

// MissingEdges implements sim.MultiAdversary when the wrapped edge strategy
// does, so an activation-wrapped capped adversary keeps its multi-edge
// capability; otherwise it falls back to the single-edge path.
func (r *RandomActivation) MissingEdges(t int, w *sim.World, intents []sim.Intent, buf []int) []int {
	if r.Edges == nil {
		return buf
	}
	if m, ok := r.Edges.(sim.MultiAdversary); ok {
		return m.MissingEdges(t, w, intents, buf)
	}
	if e := r.Edges.MissingEdge(t, w, intents); e != sim.NoEdge {
		buf = append(buf, e)
	}
	return buf
}
