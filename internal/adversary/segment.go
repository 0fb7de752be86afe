package adversary

import (
	"strconv"

	"dynring/internal/sim"
)

// SegmentConfine is the strategy of Theorem 19 (ET model): it confines the
// agents to the node interval [Lo..Hi] by blocking the two boundary edges.
// Only one edge can be missing per round, so in "busy" rounds — when agents
// press both boundaries — it alternates: it blocks one boundary edge and
// makes the agents pressing the other boundary passive. In the ET model a
// passive agent on a port does not move, so the confinement holds for any
// finite horizon (the model's eventual-transport guarantee only bites
// after the engine's fairness bound, exactly as the theorem's "finite but
// unbounded" schedule requires).
//
// With Lo = 0 and Hi = n−1 on a ring of size n this is the execution on R1
// (edge n−1 perpetually removed, endpoint activation alternating); on a
// larger ring it is the indistinguishable execution on R2.
type SegmentConfine struct {
	// Lo and Hi delimit the allowed node interval (inclusive).
	Lo, Hi int

	alt bool
}

// NewSegmentConfine returns a fresh strategy for [lo..hi].
func NewSegmentConfine(lo, hi int) *SegmentConfine {
	return &SegmentConfine{Lo: lo, Hi: hi}
}

var _ sim.Adversary = (*SegmentConfine)(nil)

// boundary returns the two boundary edges: the one past Hi (clockwise) and
// the one before Lo (counter-clockwise). On a full ring they coincide.
func (s *SegmentConfine) boundary(w *sim.World) (hiEdge, loEdge int) {
	r := w.Ring()
	return r.Edge(s.Hi, 1), r.Edge(s.Lo, -1)
}

// pressers returns the live agents that would traverse edge e if active.
func (s *SegmentConfine) pressers(w *sim.World, e int) []int {
	var out []int
	for i := 0; i < w.NumAgents(); i++ {
		if w.AgentTerminated(i) {
			continue
		}
		in, err := w.PeekGlobal(i)
		if err == nil && in.Move && in.TargetEdge == e {
			out = append(out, i)
		}
	}
	return out
}

// Activate implements sim.Adversary.
func (s *SegmentConfine) Activate(_ int, w *sim.World) []int {
	hiEdge, loEdge := s.boundary(w)
	if hiEdge == loEdge {
		// Full-ring case (R1): the single boundary edge is always
		// removed; in busy rounds alternate which endpoint group acts.
		press := s.pressers(w, hiEdge)
		if len(press) < 2 {
			return w.AgentIDs()
		}
		s.alt = !s.alt
		dropFrom := w.Ring().Node(s.Hi)
		if s.alt {
			dropFrom = w.Ring().Node(s.Lo)
		}
		return s.allExceptPressersAt(w, hiEdge, dropFrom)
	}
	hiPress := s.pressers(w, hiEdge)
	loPress := s.pressers(w, loEdge)
	if len(hiPress) > 0 && len(loPress) > 0 {
		// Busy round: block one boundary, passivate the other side's
		// pressers.
		s.alt = !s.alt
		drop := hiPress
		if s.alt {
			drop = loPress
		}
		return without(w.AgentIDs(), drop)
	}
	return w.AgentIDs()
}

// MissingEdge implements sim.Adversary.
func (s *SegmentConfine) MissingEdge(_ int, w *sim.World, intents []sim.Intent) int {
	hiEdge, loEdge := s.boundary(w)
	if hiEdge == loEdge {
		return hiEdge
	}
	for _, in := range intents {
		if in.Move && in.TargetEdge == hiEdge {
			return hiEdge
		}
	}
	for _, in := range intents {
		if in.Move && in.TargetEdge == loEdge {
			return loEdge
		}
	}
	// Nobody is pressing a boundary this round, but a sleeper on a
	// boundary port must not accumulate presence; keep one removed.
	for i := 0; i < w.NumAgents(); i++ {
		if on, dir := w.AgentOnPort(i); on {
			e := w.Ring().Edge(w.AgentNode(i), dir)
			if e == hiEdge || e == loEdge {
				return e
			}
		}
	}
	return sim.NoEdge
}

// allExceptPressersAt returns all live agents except the pressers of edge e
// that stand at node `at`.
func (s *SegmentConfine) allExceptPressersAt(w *sim.World, e, at int) []int {
	var drop []int
	for _, id := range s.pressers(w, e) {
		if w.AgentNode(id) == at {
			drop = append(drop, id)
		}
	}
	return without(w.AgentIDs(), drop)
}

func without(ids, drop []int) []int {
	if len(drop) == 0 {
		return ids
	}
	del := make(map[int]bool, len(drop))
	for _, d := range drop {
		del[d] = true
	}
	var out []int
	for _, id := range ids {
		if !del[id] {
			out = append(out, id)
		}
	}
	return out
}

// Fingerprint implements sim.Fingerprinter.
func (s *SegmentConfine) Fingerprint() string {
	return "segment:" + strconv.FormatBool(s.alt)
}
