package core

import (
	"fmt"

	"dynring/internal/agent"
)

// ETUnconscious is the trivial unconscious exploration protocol of
// Theorem 18: in the ET model with chirality, two agents that change
// direction only when they catch someone eventually visit every node. It
// never terminates.
type ETUnconscious struct {
	c   agent.Core
	dir agent.Dir
}

// NewETUnconscious returns a fresh instance (initial direction left).
func NewETUnconscious() *ETUnconscious {
	return &ETUnconscious{dir: agent.Left}
}

// Step implements agent.Protocol. Its one guard never transitions twice in
// a round, so there is no chain to run.
func (p *ETUnconscious) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	if p.c.Catches(v, p.dir) {
		p.dir = p.dir.Opposite()
		p.c.EnterExplore(false)
	}
	return p.c.Attempted(agent.Move(p.dir)), nil
}

// State implements agent.Protocol.
func (p *ETUnconscious) State() string {
	return "Explore/" + p.dir.String()
}

// Clone implements agent.Protocol.
func (p *ETUnconscious) Clone() agent.Protocol {
	cp := *p
	return &cp
}

// Fingerprint implements sim.Fingerprinter: the direction is the only
// decision-relevant memory.
func (p *ETUnconscious) Fingerprint() string {
	return fmt.Sprintf("%d", p.dir)
}
