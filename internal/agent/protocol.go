package agent

import "fmt"

// Protocol is the behaviour executed by every agent. All agents in a run
// execute the same protocol (agents are anonymous); each agent owns a private
// instance holding its local memory.
//
// Step is invoked once per activation with the Look snapshot and returns the
// agent's decision for the round. Step must be deterministic: the engine's
// reproducibility guarantees and the omniscient proof adversaries (which
// predict decisions by cloning) both rely on it.
//
// The snapshot is passed by reference: the engine refills a View it owns
// for every activation, so v is valid only during the call.
// A protocol must not keep v (copy *v to remember a snapshot); the engine
// never reads v back, so writing through it changes nothing.
type Protocol interface {
	// Step performs the Compute phase for one activation.
	// It returns an error only on internal protocol faults (e.g. a guard
	// cycle); the engine aborts the run and surfaces the error.
	Step(v *View) (Decision, error)

	// State returns a short human-readable label of the current protocol
	// state, used for traces and configuration-cycle detection.
	State() string

	// Clone returns a deep copy of the protocol instance. Clones are used
	// by adversaries to peek at the decision an agent would take without
	// disturbing it, and by the engine's cycle detector.
	Clone() Protocol
}

// guardCycleError reports a protocol whose state transitions looped without
// producing a decision within a single activation.
type guardCycleError struct {
	state string
	steps int
}

func (e *guardCycleError) Error() string {
	return fmt.Sprintf("agent: guard cycle detected in state %q after %d same-round transitions", e.state, e.steps)
}
