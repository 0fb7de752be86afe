package core

import (
	"fmt"

	"dynring/internal/agent"
)

// pt3State enumerates the states of Figure 18.
type pt3State int

const (
	p3Init pt3State = iota + 1
	p3Bounce
	p3Reverse
	p3MeetingR
	p3MeetingB
	p3Done
)

func (s pt3State) String() string {
	switch s {
	case p3Init:
		return "Init"
	case p3Bounce:
		return "Bounce"
	case p3Reverse:
		return "Reverse"
	case p3MeetingR:
		return "MeetingR"
	case p3MeetingB:
		return "MeetingB"
	case p3Done:
		return "Terminate"
	default:
		return "invalid"
	}
}

// PT3Explorer implements the three-agent SSYNC algorithms without
// chirality: PTBoundNoChirality (Figure 18, Theorem 16: O(N²) traversals
// with a known upper bound), PTLandmarkNoChirality (Section 4.2.3-B,
// Theorem 17: O(n²) with a landmark), and — with the strict distance check
// and exact size knowledge — ETBoundNoChirality (Section 4.3.2, Theorem 20).
//
// Agents perform a zig-zag tour, changing direction only when they catch
// another agent waiting on a missing edge. Each agent remembers the
// distance d travelled between direction changes; whenever a new leg is not
// strictly longer (PT: ≤, ET: <) the agent terminates, and likewise when it
// meets another agent in a node without having out-travelled d.
type PT3Explorer struct {
	c      agent.Core
	st     pt3State
	boundN int  // Tnodes threshold; 0 selects the landmark variant
	strict bool // ET: CheckD terminates on x < d instead of x ≤ d
	d      int
}

// NewPTBoundNoChirality returns Algorithm PTBoundNoChirality (Figure 18)
// for the known upper bound boundN ≥ 3.
func NewPTBoundNoChirality(boundN int) (*PT3Explorer, error) {
	if boundN < 3 {
		return nil, fmt.Errorf("core: upper bound %d below minimum ring size 3", boundN)
	}
	return &PT3Explorer{st: p3Init, boundN: boundN}, nil
}

// NewPTLandmarkNoChirality returns Algorithm PTLandmarkNoChirality
// (Section 4.2.3-B): the Tnodes ≥ N guard is replaced by "n is known",
// i.e. a completed loop around the landmark.
func NewPTLandmarkNoChirality() *PT3Explorer {
	return &PT3Explorer{st: p3Init}
}

// NewETBoundNoChirality returns Algorithm ETBoundNoChirality
// (Section 4.3.2) for the exactly known ring size n: the bound becomes
// n−1 and the CheckD inequality becomes strict (Theorem 20).
func NewETBoundNoChirality(n int) (*PT3Explorer, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: ring size %d below minimum 3", n)
	}
	return &PT3Explorer{st: p3Init, boundN: n - 1, strict: true}, nil
}

// done is the termination predicate: "Tnodes ≥ N" (bound variants) or
// "n is known" (landmark variant).
func (p *PT3Explorer) done() bool {
	if p.boundN > 0 {
		return p.c.Tnodes() >= p.boundN
	}
	return p.c.KnowsN()
}

// checkD is function CheckD(x) of Figure 18. It returns true when the agent
// must terminate.
func (p *PT3Explorer) checkD(x int) bool {
	if p.d <= 0 {
		return false
	}
	if (p.strict && x < p.d) || (!p.strict && x <= p.d) {
		return true
	}
	p.d = x
	return false
}

// Step implements agent.Protocol.
func (p *PT3Explorer) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	for range agent.MaxChain {
		if d, final := p.eval(v); final {
			return p.c.Attempted(d), nil
		}
	}
	return agent.Decision{}, agent.GuardCycle(p.State())
}

func (p *PT3Explorer) eval(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	switch p.st {
	case p3Init:
		// Explore(left | Tnodes ≥ N: Terminate, catches: Bounce)
		switch {
		case p.done():
			p.st = p3Done
			return agent.Terminate, true
		case c.Catches(v, agent.Left):
			return p.enterBounce()
		default:
			return agent.Move(agent.Left), true
		}
	case p3Bounce:
		// Explore(right | Tnodes ≥ N: Terminate, meeting: MeetingB,
		//                 catches: Reverse)
		switch {
		case p.done():
			p.st = p3Done
			return agent.Terminate, true
		case c.Meeting(v):
			return p.enterMeeting(p3MeetingB)
		case c.Catches(v, agent.Right):
			return p.enterReverse()
		default:
			return agent.Move(agent.Right), true
		}
	case p3Reverse:
		// Explore(left | Tnodes ≥ N: Terminate, meeting: MeetingR,
		//                 catches: Bounce)
		switch {
		case p.done():
			p.st = p3Done
			return agent.Terminate, true
		case c.Meeting(v):
			return p.enterMeeting(p3MeetingR)
		case c.Catches(v, agent.Left):
			return p.enterBounce()
		default:
			return agent.Move(agent.Left), true
		}
	case p3MeetingR:
		// ExploreNoResetEsteps(left | Tnodes ≥ N: Terminate,
		//                             catches: Bounce)
		switch {
		case p.done():
			p.st = p3Done
			return agent.Terminate, true
		case c.Catches(v, agent.Left):
			return p.enterBounce()
		default:
			return agent.Move(agent.Left), true
		}
	case p3MeetingB:
		// ExploreNoResetEsteps(right | Tnodes ≥ N: Terminate,
		//                              catches: Reverse)
		switch {
		case p.done():
			p.st = p3Done
			return agent.Terminate, true
		case c.Catches(v, agent.Right):
			return p.enterReverse()
		default:
			return agent.Move(agent.Right), true
		}
	default:
		return agent.Terminate, true
	}
}

func (p *PT3Explorer) enterBounce() (agent.Decision, bool) {
	if p.checkD(p.c.Esteps) {
		p.st = p3Done
		return agent.Terminate, true
	}
	p.st = p3Bounce
	p.c.EnterExplore(false)
	return agent.Decision{}, false
}

func (p *PT3Explorer) enterReverse() (agent.Decision, bool) {
	if p.d == 0 {
		// First change of direction from Bounce to Reverse sets d.
		p.d = p.c.Esteps
	} else if p.checkD(p.c.Esteps) {
		p.st = p3Done
		return agent.Terminate, true
	}
	p.st = p3Reverse
	p.c.EnterExplore(false)
	return agent.Decision{}, false
}

// enterMeeting performs the entry of MeetingR/MeetingB: terminate if the
// distance covered since the last direction change does not exceed d
// (checked only once d is set, per the prose of Section 4.2.3); Esteps is
// preserved (ExploreNoResetEsteps).
func (p *PT3Explorer) enterMeeting(s pt3State) (agent.Decision, bool) {
	if p.d > 0 && p.c.Esteps <= p.d {
		p.st = p3Done
		return agent.Terminate, true
	}
	p.st = s
	p.c.EnterExplore(true)
	return agent.Decision{}, false
}

// State implements agent.Protocol.
func (p *PT3Explorer) State() string { return p.st.String() }

// Clone implements agent.Protocol.
func (p *PT3Explorer) Clone() agent.Protocol {
	cp := *p
	return &cp
}

// Fingerprint implements sim.Fingerprinter.
func (p *PT3Explorer) Fingerprint() string {
	b := p.c.Btime
	if b > 1 {
		b = 1
	}
	return fmt.Sprintf("%d|%d|%d|%d|%d|%t", p.st, p.c.Esteps, p.d, p.c.Tnodes(), b, p.c.KnowsN())
}
