// Package rescache provides the result-cache core shared by the ringsimd
// service (internal/service) and the in-process sweep memo (dynring.Memo):
// the LRU Cache, the durable content-addressed Disk tier, and Group, the
// single execution primitive both consumers run scenarios through — probe
// the store, join or lead a flight, execute once, store, and hand waiters
// a copy of the leader's value.
//
// The cache is deliberately generic and policy-free: it knows nothing about
// scenarios or results. The correctness argument lives with the keys — both
// consumers key by a canonical content hash whose contract is "equal key
// implies identical value", so serving a cached (deep-copied) value is
// indistinguishable from recomputing it. See docs/ARCHITECTURE.md for the
// full cache-correctness invariants.
package rescache
