package adversary

import (
	"strconv"

	"dynring/internal/sim"
)

// BoundedBlocking enforces δ-recurrence on top of another strategy: no edge
// may be missing for more than Delta consecutive rounds (each edge
// reappears at least once every Delta+1 rounds). This is the δ-recurrent
// dynamics class the paper discusses in its related work (Section 1.1.3,
// after Ilcinkas–Wade): 1-interval connectivity bounds how much may break
// per round, δ-recurrence bounds for how long. The recurrence-sweep
// extension experiment measures how exploration accelerates as δ shrinks.
type BoundedBlocking struct {
	// Inner provides the underlying strategy.
	Inner sim.Adversary
	// Delta is the maximum number of consecutive rounds one edge may be
	// missing; it must be ≥ 1.
	Delta int

	lastEdge int
	streak   int
}

// NewBoundedBlocking wraps inner with a δ-recurrence constraint.
func NewBoundedBlocking(inner sim.Adversary, delta int) *BoundedBlocking {
	if delta < 1 {
		delta = 1
	}
	return &BoundedBlocking{Inner: inner, Delta: delta, lastEdge: sim.NoEdge}
}

var _ sim.Adversary = (*BoundedBlocking)(nil)

// Activate implements sim.Adversary.
func (b *BoundedBlocking) Activate(t int, w *sim.World) []int {
	if b.Inner == nil {
		return w.AgentIDs()
	}
	return b.Inner.Activate(t, w)
}

// MissingEdge implements sim.Adversary: the inner strategy's choice is
// overridden to NoEdge whenever it would extend an edge's absence beyond
// Delta consecutive rounds.
func (b *BoundedBlocking) MissingEdge(t int, w *sim.World, intents []sim.Intent) int {
	e := sim.NoEdge
	if b.Inner != nil {
		e = b.Inner.MissingEdge(t, w, intents)
	}
	if e != sim.NoEdge && e == b.lastEdge && b.streak >= b.Delta {
		e = sim.NoEdge
	}
	if e == b.lastEdge && e != sim.NoEdge {
		b.streak++
	} else {
		b.lastEdge = e
		b.streak = 1
	}
	return e
}

// NextChange implements sim.ScheduledAdversary, maximally conservatively:
// the blockage streak advances on every call in which the inner strategy
// blocks, so behaviour is only guaranteed stable for the round already
// executed. Returning t+1 makes the purity window empty and disables
// leaping — correct by construction, and cheap: δ-recurrent schedules bound
// every stall at Delta rounds anyway, so there is little to leap over.
func (b *BoundedBlocking) NextChange(t int) int { return t + 1 }

// Fingerprint implements sim.Fingerprinter when the inner strategy does.
func (b *BoundedBlocking) Fingerprint() string {
	inner := ""
	if fp, ok := b.Inner.(sim.Fingerprinter); ok {
		inner = fp.Fingerprint()
	}
	return "bounded:" + strconv.Itoa(b.lastEdge) + ":" + strconv.Itoa(b.streak) + ":" + inner
}
