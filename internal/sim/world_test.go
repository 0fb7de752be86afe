package sim

import (
	"testing"

	"dynring/internal/ring"
)

// TestWrapHelpersMatchRing: the engine's compare-and-wrap edge and neighbor
// steps agree with Ring.Edge and Ring.Neighbor on every node of every ring
// from the smallest to 64 nodes, in both directions.
func TestWrapHelpersMatchRing(t *testing.T) {
	for n := ring.MinSize; n <= 64; n++ {
		w := allocWorld(t, n, 1, FSync, nil)
		rg := w.Ring()
		for v := 0; v < n; v++ {
			for _, d := range []ring.GlobalDir{ring.CW, ring.CCW} {
				if got, want := w.edge(v, d), rg.Edge(v, d); got != want {
					t.Fatalf("n=%d: edge(%d, %v) = %d, Ring.Edge = %d", n, v, d, got, want)
				}
				if got, want := w.neighbor(v, d), rg.Neighbor(v, d); got != want {
					t.Fatalf("n=%d: neighbor(%d, %v) = %d, Ring.Neighbor = %d", n, v, d, got, want)
				}
			}
		}
	}
}
