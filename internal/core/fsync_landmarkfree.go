package core

import (
	"fmt"

	"dynring/internal/agent"
)

// lfState enumerates the states of LandmarkFreeExactN.
type lfState int

const (
	lfSweep lfState = iota + 1
	lfDone
)

func (s lfState) String() string {
	switch s {
	case lfSweep:
		return "Sweep"
	case lfDone:
		return "Terminate"
	default:
		return "invalid"
	}
}

// LandmarkFreeExactN explores an anonymous dynamic ring — no landmark node —
// with three agents that share chirality and know the exact ring size n,
// the landmark-free regime of Das–Bose–Sau, "Exploring a Dynamic Ring
// without Landmark" (arXiv:2107.02769). It is an engine-native realization
// of that regime rather than a transcription of their pseudocode: each agent
// sweeps in its current direction, reverses after being blocked on one port
// for lfBounceFactor·n consecutive rounds (or after losing a port race), and
// terminates as soon as the span of its private walk reaches n−1 edges —
// at that point the agent has itself stood on all n nodes, so termination
// needs no communication and no landmark.
//
// Guarantees (see docs/ARCHITECTURE.md for the confinement argument): under
// 1-interval connectivity the ring is fully explored and at least the first
// two agents terminate — a single remaining agent can be pinned forever
// (Observation 1), which is why the registry advertises partial, not
// explicit, termination and why two agents do not suffice. Against the
// weaker capped(r ≥ 2) adversaries exploration may legitimately stall; the
// sweep grids record those outcomes.
type LandmarkFreeExactN struct {
	c   agent.Core
	st  lfState
	n   int // the known exact ring size
	dir agent.Dir
}

// lfBounceFactor scales the blocked-wait threshold: an agent abandons a port
// after lfBounceFactor·n consecutive blocked rounds. It must be large enough
// that three agents' wall waits cannot be kept pairwise disjoint by a
// single-edge adversary (the counting argument needs factor > 2 with slack).
const lfBounceFactor = 8

// NewLandmarkFreeExactN returns a fresh instance for exact ring size n ≥ 3.
func NewLandmarkFreeExactN(n int) (*LandmarkFreeExactN, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: exact size %d below minimum ring size 3", n)
	}
	return &LandmarkFreeExactN{st: lfSweep, n: n, dir: agent.Right}, nil
}

// Step implements agent.Protocol. The sweep never transitions twice in a
// round, so there is no chain to run.
func (p *LandmarkFreeExactN) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	return p.c.Attempted(p.eval()), nil
}

func (p *LandmarkFreeExactN) eval() agent.Decision {
	c := &p.c
	switch p.st {
	case lfSweep:
		switch {
		case c.Tnodes() >= p.n-1:
			// The private walk spans n−1 edges: the agent has visited all
			// n nodes itself, so it may stop unconditionally.
			p.st = lfDone
			return agent.Terminate
		case c.Failed || c.Btime >= lfBounceFactor*p.n:
			// Lost a port race (another agent holds the port this agent
			// wants — pushing further would deadlock behind it) or waited
			// out a wall: sweep the other way.
			p.dir = p.dir.Opposite()
			return agent.Move(p.dir)
		default:
			return agent.Move(p.dir)
		}
	default:
		return agent.Terminate
	}
}

// State implements agent.Protocol.
func (p *LandmarkFreeExactN) State() string {
	if p.st == lfSweep {
		return "Sweep/" + p.dir.String()
	}
	return p.st.String()
}

// Clone implements agent.Protocol.
func (p *LandmarkFreeExactN) Clone() agent.Protocol {
	cp := *p
	return &cp
}
