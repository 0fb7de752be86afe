package core

import "dynring/internal/agent"

// ucState enumerates the states of Figure 3.
type ucState int

const (
	ucInit ucState = iota + 1
	ucReverse
	ucKeep
	ucBounce
	ucForward
)

func (s ucState) String() string {
	switch s {
	case ucInit:
		return "Init"
	case ucReverse:
		return "Reverse"
	case ucKeep:
		return "Keep"
	case ucBounce:
		return "Bounce"
	case ucForward:
		return "Forward"
	default:
		return "invalid"
	}
}

// UnconsciousExploration is Algorithm Unconscious Exploration (Figure 3):
// two anonymous agents with no knowledge of the ring size and no chirality
// explore the ring in O(n) rounds without ever terminating (Theorem 5).
// The agents guess the ring size (G, doubling each phase) and use long
// blockages to decide whether to reverse direction.
//
// The paper's Reverse state reads "F ← 2·G" with F never used; following the
// prose and the proof of Theorem 5, the guess doubles on every phase change,
// so Reverse performs G ← 2·G exactly like Keep (see DESIGN.md).
type UnconsciousExploration struct {
	c       agent.Core
	st      ucState
	g       int
	dir     agent.Dir
	literal bool // transcribe Figure 3 verbatim (erratum E2 unrepaired)
}

// NewUnconsciousExploration returns a fresh instance (initial guess G = 2,
// initial direction left).
func NewUnconsciousExploration() *UnconsciousExploration {
	return &UnconsciousExploration{st: ucInit, g: 2, dir: agent.Left}
}

// NewUnconsciousExplorationLiteral returns the verbatim transcription of
// Figure 3, with the phase-expiry guards evaluated before the catch events
// as printed. The errata-ablation experiment exhibits the adversarial
// deadlock (erratum E2 in DESIGN.md) this ordering admits.
func NewUnconsciousExplorationLiteral() *UnconsciousExploration {
	p := NewUnconsciousExploration()
	p.literal = true
	return p
}

// Step implements agent.Protocol.
func (p *UnconsciousExploration) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	for range agent.MaxChain {
		if d, final := p.eval(v); final {
			return p.c.Attempted(d), nil
		}
	}
	return agent.Decision{}, agent.GuardCycle(p.State())
}

func (p *UnconsciousExploration) eval(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	switch p.st {
	case ucInit, ucReverse, ucKeep:
		// Explore(dir | Etime ≥ 2G ∧ Btime > G: Reverse;
		//               Etime ≥ 2G: Keep; catches: Bounce; caught: Forward)
		//
		// Deviation from the figure (see DESIGN.md): the catch events are
		// evaluated before the phase-expiry guards. If a phase boundary
		// lands exactly on the round of a catch, the caught agent would
		// otherwise reverse onto the catcher's side and the pair would
		// push the same occupied port forever; Theorem 5's proof assumes
		// a catch puts the agents on opposite directions.
		if p.literal {
			return p.evalPhaseLiteral(v)
		}
		switch {
		case c.Catches(v, p.dir):
			p.st = ucBounce
			p.dir = p.dir.Opposite()
			c.EnterExplore(false)
			return agent.Decision{}, false
		case c.Caught(v):
			p.st = ucForward
			c.EnterExplore(false)
			return agent.Decision{}, false
		case c.Etime >= 2*p.g && c.Btime > p.g:
			p.st = ucReverse
			p.g *= 2
			p.dir = p.dir.Opposite()
			c.EnterExplore(false)
			return agent.Decision{}, false
		case c.Etime >= 2*p.g:
			p.st = ucKeep
			p.g *= 2
			c.EnterExplore(false)
			return agent.Decision{}, false
		default:
			return agent.Move(p.dir), true
		}
	case ucBounce, ucForward:
		// Explore(opposite(dir)) / Explore(dir): keep going forever.
		return agent.Move(p.dir), true
	default:
		return agent.Stay, true
	}
}

// evalPhaseLiteral is the Init/Reverse/Keep guard list exactly as printed
// in Figure 3, kept for the errata-ablation experiment.
func (p *UnconsciousExploration) evalPhaseLiteral(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	switch {
	case c.Etime >= 2*p.g && c.Btime > p.g:
		p.st = ucReverse
		p.g *= 2
		p.dir = p.dir.Opposite()
		c.EnterExplore(false)
		return agent.Decision{}, false
	case c.Etime >= 2*p.g:
		p.st = ucKeep
		p.g *= 2
		c.EnterExplore(false)
		return agent.Decision{}, false
	case c.Catches(v, p.dir):
		p.st = ucBounce
		p.dir = p.dir.Opposite()
		c.EnterExplore(false)
		return agent.Decision{}, false
	case c.Caught(v):
		p.st = ucForward
		c.EnterExplore(false)
		return agent.Decision{}, false
	default:
		return agent.Move(p.dir), true
	}
}

// State implements agent.Protocol.
func (p *UnconsciousExploration) State() string { return p.st.String() }

// Clone implements agent.Protocol.
func (p *UnconsciousExploration) Clone() agent.Protocol {
	cp := *p
	return &cp
}
