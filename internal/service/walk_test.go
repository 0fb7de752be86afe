package service

import (
	"fmt"
	"testing"
)

// walkFunc is the shape of the route walk's step, nextStop.
type walkFunc func(owners []string, next int, self string, routable func(string) bool) (string, int)

// TestRouteWalkModel checks nextStop exhaustively in a small scope: rings
// of 2–5 members, every replica count and owner order, every set of down
// peers that all coordinators see alike, and every coordinator.
//   - Fault-free, every coordinator's walk ends at the same executor: the
//     first live member of owners, counting the coordinator itself as
//     live (or the coordinator, when no owner is live).
//   - When targets fail, each failed target and possibly one more peer
//     turn unroutable before the next step; a walk never targets a peer
//     that is unroutable at that step, never passes the coordinator's own
//     place in owners, and only moves forward.
//
// The table's other rows are walks with known exactly-once defects, each
// of which the check must reject: the walk that went on past this node's
// place (the step before static membership), and a failover that took
// the next replica without reading its health again.
func TestRouteWalkModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		walk walkFunc
		ok   bool
	}{
		{"nextStop", nextStop, true},
		{"walks past self", func(owners []string, next int, self string, routable func(string) bool) (string, int) {
			if owners[0] == self {
				return "", next
			}
			for next < len(owners) {
				o := owners[next]
				next++
				if o != self && routable(o) {
					return o, next
				}
			}
			return "", next
		}, false},
		{"failover skips the health check", func(owners []string, next int, self string, routable func(string) bool) (string, int) {
			failover := next > 0
			for next < len(owners) {
				o := owners[next]
				next++
				if o == self {
					return "", next
				}
				if failover || routable(o) {
					return o, next
				}
			}
			return "", next
		}, false},
	} {
		err := checkWalk(tc.walk)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: the model check accepts a walk it must reject", tc.name)
		}
	}
}

// member names are single letters, so a set of members is a bit mask.
func bit(member string) uint { return 1 << (member[0] - 'a') }

// checkWalk runs the model check of TestRouteWalkModel on walk.
func checkWalk(walk walkFunc) error {
	for n := 2; n <= 5; n++ {
		members := []string{"a", "b", "c", "d", "e"}[:n]
		for k := 1; k <= n; k++ {
			var err error
			orders(members, k, nil, func(owners []string) bool {
				for down := uint(0); down < 1<<n && err == nil; down++ {
					err = checkOwners(walk, members, owners, down)
				}
				return err == nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// orders calls fn with every ordered choice of k distinct members, until
// fn returns false.
func orders(members []string, k int, prefix []string, fn func([]string) bool) bool {
	if len(prefix) == k {
		return fn(prefix)
	}
	for _, m := range members {
		used := false
		for _, p := range prefix {
			used = used || p == m
		}
		if !used && !orders(members, k, append(prefix, m), fn) {
			return false
		}
	}
	return true
}

// checkOwners checks every live coordinator's walks of one replica set
// with the peers in down unroutable.
func checkOwners(walk walkFunc, members, owners []string, down uint) error {
	// The fault-free executor: the first live owner, the same for every
	// coordinator because coordinators are live.
	first := ""
	for _, o := range owners {
		if down&bit(o) == 0 {
			first = o
			break
		}
	}
	for _, c := range members {
		if down&bit(c) != 0 {
			continue
		}
		want := first
		if want == "" {
			want = c
		}
		target, _ := walk(owners, 0, c, func(p string) bool { return down&bit(p) == 0 })
		if target == "" {
			target = c
		}
		if target != want {
			return fmt.Errorf("owners %v, down %05b, coordinator %s: the row runs on %s, want %s", owners, down, c, target, want)
		}
		if err := failingWalk(walk, owners, c, down, 0, -1); err != nil {
			return err
		}
	}
	return nil
}

// failingWalk takes coordinator c's next step from owners[next] with the
// peers in down unroutable, checks it, and when it reaches a peer, fails
// that peer's batch: the peer turns unroutable, and so, in turn, does each
// later owner that is still routable, or none, before the next step.
func failingWalk(walk walkFunc, owners []string, c string, down uint, next, prev int) error {
	target, after := walk(owners, next, c, func(p string) bool { return down&bit(p) == 0 })
	if target == "" {
		return nil
	}
	pos := after - 1
	switch {
	case pos < 0 || pos >= len(owners) || owners[pos] != target:
		return fmt.Errorf("owners %v, coordinator %s: target %s is not owners[%d]", owners, c, target, pos)
	case pos <= prev:
		return fmt.Errorf("owners %v, coordinator %s: the walk went back to %s", owners, c, target)
	case down&bit(target) != 0:
		return fmt.Errorf("owners %v, down %05b, coordinator %s: the walk targets unroutable %s", owners, down, c, target)
	}
	for _, o := range owners[:pos+1] {
		if o == c {
			return fmt.Errorf("owners %v, coordinator %s: the walk went past its own place to %s", owners, c, target)
		}
	}
	down |= bit(target)
	if err := failingWalk(walk, owners, c, down, after, pos); err != nil {
		return err
	}
	for _, o := range owners[after:] {
		if o != c && down&bit(o) == 0 {
			if err := failingWalk(walk, owners, c, down|bit(o), after, pos); err != nil {
				return err
			}
		}
	}
	return nil
}
