package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member when a Ring is built
// with a non-positive vnode count, and the count every Membership ring
// uses — it is fixed, not configurable, because nodes that disagreed on it
// would disagree on placement and with it on exactly-once. 64 points per
// member keeps the worst member's share within a few percent of fair for
// small clusters while the ring stays tiny (a 16-node cluster is 1024
// points).
const DefaultVNodes = 64

// Ring is a consistent-hash ring over a fixed member set. Each member
// contributes vnodes points on a 64-bit circle; a key is owned by the
// member whose point follows the key's hash. Placement is a deterministic
// function of (member set, vnodes) only — it is independent of member
// order, health, and process history, and the hash layout is frozen (see
// pointHash) so owners never silently shift across releases; the golden
// test in ring_test.go pins it.
//
// A Ring is immutable after New and therefore safe for concurrent use.
type Ring struct {
	vnodes  int
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

// point is one virtual node on the circle.
type point struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (non-positive means DefaultVNodes). Members are deduplicated and sorted,
// so any permutation of the same set yields an identical ring. An empty
// member set yields a ring whose Owner always returns "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		vnodes:  vnodes,
		members: uniq,
		points:  make([]point, 0, len(uniq)*vnodes),
	}
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(m, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// A full 64-bit collision between two members' points is
		// astronomically unlikely, but the tie must still break
		// deterministically for placement to be a pure function.
		return a.member < b.member
	})
	return r
}

// pointHash places virtual node v of member m on the circle. The encoding
// — sha256 over "m\x00v" with the member length prefixed, first 8 bytes
// big-endian — is part of the placement contract: changing it moves every
// key and invalidates the golden test on purpose.
func pointHash(m string, v int) uint64 {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s\x00%d", len(m), m, v)
	return binary.BigEndian.Uint64(h.Sum(nil))
}

// keyHash places a key on the circle: first 8 bytes of sha256(key),
// big-endian. Scenario fingerprints are already uniform hashes, but Ring
// re-hashes so arbitrary keys (and future key families) spread equally.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the sorted member set. Callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// VNodes is the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning key: the first point at or after the
// key's hash, wrapping to the first point of the circle. An empty ring
// owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Owners returns key's replica set: the owner followed by the next k-1
// distinct successor members clockwise from the key's position, so
// Owners(key, 1)[0] == Owner(key) for every key and the sets for
// consecutive k values nest. k larger than the member count returns every
// member, ordered by successor walk; k < 1 is treated as 1. Like Owner,
// the result is a pure function of (member set, vnodes) — health never
// reorders a replica set — and the replica golden test pins it.
func (r *Ring) Owners(key string, k int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	start := r.search(key)
	owners := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for n := 0; n < len(r.points) && len(owners) < k; n++ {
		m := r.points[(start+n)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			owners = append(owners, m)
		}
	}
	return owners
}

// search locates the index of the first point at or after key's hash,
// wrapping to 0 past the end. Callers guarantee a non-empty ring.
func (r *Ring) search(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
