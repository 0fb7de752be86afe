package core

import (
	"fmt"

	"dynring/internal/agent"
)

// ptState enumerates the states of Figures 14 and 17.
type ptState int

const (
	ptInit ptState = iota + 1
	ptBounce
	ptReverse
	ptDone
)

func (s ptState) String() string {
	switch s {
	case ptInit:
		return "Init"
	case ptBounce:
		return "Bounce"
	case ptReverse:
		return "Reverse"
	case ptDone:
		return "Terminate"
	default:
		return "invalid"
	}
}

// PTExplorer implements the two-agent SSYNC Passive Transport algorithms
// with chirality: PTBoundWithChirality (Figure 14, Theorem 12: O(N²) edge
// traversals with a known upper bound N) and PTLandmarkWithChirality
// (Figure 17, Theorem 14: O(n²) traversals with a landmark). One agent
// explicitly terminates; the other terminates or waits forever on a port.
//
// Both agents move left until one finds the other waiting on a missing edge
// (catches) and bounces right; a blocked bounce reverses again. Termination:
// the agent has perceived the whole ring itself (Tnodes ≥ N, or a completed
// loop around the landmark), or its right excursion was at least as long as
// the left excursion that followed it (rightSteps ≥ leftSteps), which proves
// the two agents have crossed.
type PTExplorer struct {
	c      agent.Core
	st     ptState
	boundN int // known upper bound; 0 selects the landmark variant

	leftSteps  int
	leftSet    bool
	rightSteps int
	rightSet   bool
}

// NewPTBoundWithChirality returns Algorithm PTBoundWithChirality
// (Figure 14) for the known upper bound boundN ≥ 3.
func NewPTBoundWithChirality(boundN int) (*PTExplorer, error) {
	if boundN < 3 {
		return nil, fmt.Errorf("core: upper bound %d below minimum ring size 3", boundN)
	}
	return &PTExplorer{st: ptInit, boundN: boundN}, nil
}

// NewPTLandmarkWithChirality returns Algorithm PTLandmarkWithChirality
// (Figure 17): no size knowledge, termination via a loop around the
// landmark.
func NewPTLandmarkWithChirality() *PTExplorer {
	return &PTExplorer{st: ptInit}
}

// done is the termination predicate: "Tnodes ≥ N" for the bound variant,
// "n is known" for the landmark variant.
func (p *PTExplorer) done() bool {
	if p.boundN > 0 {
		return p.c.Tnodes() >= p.boundN
	}
	return p.c.KnowsN()
}

// Step implements agent.Protocol.
func (p *PTExplorer) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	for range agent.MaxChain {
		if d, final := p.eval(v); final {
			return p.c.Attempted(d), nil
		}
	}
	return agent.Decision{}, agent.GuardCycle(p.State())
}

func (p *PTExplorer) eval(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	switch p.st {
	case ptInit, ptReverse:
		// Explore(left | done: Terminate, catches: Bounce)
		switch {
		case p.done():
			p.st = ptDone
			return agent.Terminate, true
		case c.Catches(v, agent.Left):
			p.leftSteps = c.Esteps
			p.leftSet = true
			if p.rightSet && p.rightSteps >= p.leftSteps {
				p.st = ptDone
				return agent.Terminate, true
			}
			p.st = ptBounce
			c.EnterExplore(false)
			return agent.Decision{}, false
		default:
			return agent.Move(agent.Left), true
		}
	case ptBounce:
		// Explore(right | done: Terminate, Btime > 0: Reverse)
		switch {
		case p.done():
			p.st = ptDone
			return agent.Terminate, true
		case c.Btime > 0:
			p.rightSteps = c.Esteps
			p.rightSet = true
			p.st = ptReverse
			c.EnterExplore(false)
			return agent.Decision{}, false
		default:
			return agent.Move(agent.Right), true
		}
	default:
		return agent.Terminate, true
	}
}

// State implements agent.Protocol.
func (p *PTExplorer) State() string { return p.st.String() }

// Clone implements agent.Protocol.
func (p *PTExplorer) Clone() agent.Protocol {
	cp := *p
	return &cp
}

// Fingerprint implements sim.Fingerprinter. All decision-relevant memory is
// bounded once the configuration stops changing (counters only grow while
// moves happen or ports flip), so repeated fingerprints certify stalls.
func (p *PTExplorer) Fingerprint() string {
	b := p.c.Btime
	if b > 1 {
		b = 1
	}
	return fmt.Sprintf("%d|%d|%d|%t|%d|%t|%d|%d|%t", p.st, p.c.Esteps, p.leftSteps, p.leftSet,
		p.rightSteps, p.rightSet, p.c.Tnodes(), b, p.c.KnowsN())
}
