// Package cluster is the peer-coordination layer of a sharded ringsimd
// deployment: a consistent-hash ring that assigns every scenario
// fingerprint to exactly one owning peer, and a membership table that
// tracks peer health through periodic HTTP probes.
//
// The two halves are deliberately decoupled. The member set is static —
// the configured self plus peers — and placement (Ring) is a pure
// function of it and the fixed vnode count (DefaultVNodes): health never
// moves keys, so nodes started with the same member list agree on every
// owner. Health (Membership) only gates *routing*: a request whose owner
// is not alive falls back to its replicas and then to local execution on
// the node that holds it, trading one duplicate execution for
// availability. internal/service is the package's only user and the
// cluster's one routing authority; clients never compute placement.
package cluster
