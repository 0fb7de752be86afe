// Package agent defines the contract between exploration protocols and the
// simulation engine: the Look snapshot an agent receives (View), the decision
// it returns (Decision), the Protocol interface every algorithm implements,
// and the Core bookkeeping that realises the paper's agent-local variables
// (Ttime, Tsteps, Etime, Esteps, Btime, Ntime, Tnodes) together with the
// Explore / LExplore guarded-transition pattern.
//
// Step receives the snapshot by reference (*View), valid only during the
// call. A protocol built on Core begins each activation with Core.Begin,
// evaluates its own guards as a direct call (re-evaluating after each
// same-round state transition, at most MaxChain times), and ends with
// Core.Attempted.
//
// Everything in this package is expressed in the agent's private orientation:
// protocols never see global coordinates, node identifiers, or the adversary's
// choices, exactly as in the paper's model (Section 2.1).
package agent
