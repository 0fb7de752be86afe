package expt

import (
	"strconv"

	"dynring/internal/agent"
)

// FixedTimer is the strawman protocol used by the impossibility
// demonstrations of Theorems 1, 2 and 4: it walks left every round and
// terminates after Limit rounds. Any algorithm whose termination decision
// is a function of elapsed time alone behaves like this on some schedule,
// which is exactly what the theorems' indistinguishability arguments
// exploit: the timer cannot depend on the (unknown) ring size, so a larger
// ring defeats it.
type FixedTimer struct {
	c agent.Core
	// Limit is the round at which the agent terminates.
	Limit int
}

var _ agent.Protocol = (*FixedTimer)(nil)

// Step implements agent.Protocol.
func (p *FixedTimer) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	if p.c.Ttime >= p.Limit {
		return p.c.Attempted(agent.Terminate), nil
	}
	return p.c.Attempted(agent.Move(agent.Left)), nil
}

// State implements agent.Protocol.
func (p *FixedTimer) State() string {
	return "FixedTimer@" + strconv.Itoa(p.c.Ttime) + "/" + strconv.Itoa(p.Limit)
}

// Clone implements agent.Protocol.
func (p *FixedTimer) Clone() agent.Protocol {
	cp := *p
	return &cp
}
