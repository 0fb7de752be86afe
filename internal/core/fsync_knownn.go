package core

import (
	"fmt"

	"dynring/internal/agent"
)

// knState enumerates the states of Figure 1.
type knState int

const (
	knInit knState = iota + 1
	knBounce
	knForward
	knDone
)

func (s knState) String() string {
	switch s {
	case knInit:
		return "Init"
	case knBounce:
		return "Bounce"
	case knForward:
		return "Forward"
	case knDone:
		return "Terminate"
	default:
		return "invalid"
	}
}

// KnownNNoChirality is Algorithm KnownNNoChirality (Figure 1): two
// anonymous agents without chirality, knowing an upper bound N ≥ n on the
// ring size, explore and explicitly terminate within 3N−6 rounds
// (Theorem 3). FSYNC only.
type KnownNNoChirality struct {
	c       agent.Core
	st      knState
	n       int  // the known upper bound N
	literal bool // transcribe Figure 1 verbatim, including its errata
}

// NewKnownNNoChirality returns a fresh instance for upper bound boundN ≥ 3.
func NewKnownNNoChirality(boundN int) (*KnownNNoChirality, error) {
	if boundN < 3 {
		return nil, fmt.Errorf("core: upper bound %d below minimum ring size 3", boundN)
	}
	return &KnownNNoChirality{st: knInit, n: boundN}, nil
}

// NewKnownNNoChiralityLiteral returns the verbatim transcription of
// Figure 1, including the two corner cases repaired in the default variant
// (exact Btime = N−1 match and counter guards evaluated before catch
// events, errata E1/E2 in DESIGN.md). It exists for the errata-ablation
// experiment, which exhibits the adversarial schedules that defeat it.
func NewKnownNNoChiralityLiteral(boundN int) (*KnownNNoChirality, error) {
	p, err := NewKnownNNoChirality(boundN)
	if err != nil {
		return nil, err
	}
	p.literal = true
	return p, nil
}

// Step implements agent.Protocol.
func (p *KnownNNoChirality) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	for range agent.MaxChain {
		if d, final := p.eval(v); final {
			return p.c.Attempted(d), nil
		}
	}
	return agent.Decision{}, agent.GuardCycle(p.State())
}

func (p *KnownNNoChirality) eval(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	bigN := p.n
	switch p.st {
	case knInit:
		// Explore(left | (Ttime ≥ 2N−4 ∧ Btime ≥ N−1) ∨ failed: Bounce;
		//                catches: Bounce; caught: Forward;
		//                Ttime ≥ 2N−4: Forward)
		//
		// Two deliberate deviations from the figure, both required for
		// Theorem 3 to hold and documented in DESIGN.md:
		//  - "Btime = N−1" is transcribed as ≥, per the prose ("has been
		//    blocked for N−1 rounds"): an agent whose blockage started
		//    before round N−3 passes N−1 while Ttime < 2N−4 and would
		//    otherwise never bounce.
		//  - catches/caught are evaluated before the counter guards: if a
		//    timeout fires in the very round the agents catch each other,
		//    the caught agent would otherwise also bounce, leaving both
		//    agents pushing the same port forever. The proof's case
		//    analysis assumes a catch always yields opposite directions.
		if p.literal {
			return p.evalInitLiteral(v)
		}
		switch {
		case c.Catches(v, agent.Left):
			p.to(knBounce)
			return agent.Decision{}, false
		case c.Caught(v):
			p.to(knForward)
			return agent.Decision{}, false
		case (c.Ttime >= 2*bigN-4 && c.Btime >= bigN-1) || c.Failed:
			p.to(knBounce)
			return agent.Decision{}, false
		case c.Ttime >= 2*bigN-4:
			p.to(knForward)
			return agent.Decision{}, false
		default:
			return agent.Move(agent.Left), true
		}
	case knBounce:
		// Explore(right | Ttime ≥ 3N−6: Terminate)
		if c.Ttime >= 3*bigN-6 {
			p.st = knDone
			return agent.Terminate, true
		}
		return agent.Move(agent.Right), true
	case knForward:
		// Explore(left | Ttime ≥ 3N−6: Terminate)
		if c.Ttime >= 3*bigN-6 {
			p.st = knDone
			return agent.Terminate, true
		}
		return agent.Move(agent.Left), true
	default:
		return agent.Terminate, true
	}
}

// evalInitLiteral is the Init state exactly as printed in Figure 1,
// kept for the errata-ablation experiment.
func (p *KnownNNoChirality) evalInitLiteral(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	bigN := p.n
	switch {
	case (c.Ttime >= 2*bigN-4 && c.Btime == bigN-1) || c.Failed:
		p.to(knBounce)
		return agent.Decision{}, false
	case c.Catches(v, agent.Left):
		p.to(knBounce)
		return agent.Decision{}, false
	case c.Caught(v):
		p.to(knForward)
		return agent.Decision{}, false
	case c.Ttime >= 2*bigN-4:
		p.to(knForward)
		return agent.Decision{}, false
	default:
		return agent.Move(agent.Left), true
	}
}

func (p *KnownNNoChirality) to(s knState) {
	p.st = s
	p.c.EnterExplore(false)
}

// State implements agent.Protocol.
func (p *KnownNNoChirality) State() string { return p.st.String() }

// Clone implements agent.Protocol.
func (p *KnownNNoChirality) Clone() agent.Protocol {
	cp := *p
	return &cp
}
