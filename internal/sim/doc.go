// Package sim implements the paper's execution model (Section 2.1): a
// discrete-round engine over a dynamic ring in which agents perform
// Look–Compute–Move with mutually exclusive port access, under a fully
// synchronous (FSYNC) or semi-synchronous (SSYNC) activation schedule, the
// latter with the No Simultaneity (NS), Passive Transport (PT) or Eventual
// Transport (ET) treatment of agents sleeping on ports.
//
// Dynamics regimes: an Adversary removes at most one edge per round — the
// paper's 1-interval connectivity, under which the ring always stays
// connected. A MultiAdversary may remove several edges per round (the
// capped-removal relaxation of the dynamics-model zoo), under which the
// ring may temporarily disconnect; the engine validates, deduplicates and
// applies the whole set, and reports it through RoundRecord.MissingEdges
// and the World's MissingEdgesNow/EdgeMissingNow accessors.
//
// The engine is deterministic given its inputs: protocols are deterministic
// by contract, default tie-breaking is by lowest agent id, and adversaries
// receive explicit access to the world plus the agents' resolved intents, so
// randomized strategies must carry their own seeded source.
//
// The hot path is allocation-free: all per-round working storage — including
// the missing-edge set — lives in preallocated scratch on the World (sized
// once by Reset), so the steady state of Step performs zero heap allocations
// on both the single-edge and multi-edge paths. The exceptions are opt-in:
// an Observer costs one RoundRecord per round, DetectCycles costs one
// fingerprint string per round, and a custom SSYNC adversary allocates
// whatever its Activate allocates. The stock adversaries allocate nothing:
// they activate everyone through World.AgentIDs, or reuse their own buffer.
package sim
