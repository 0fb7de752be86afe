package ring

import (
	"errors"
	"fmt"
)

// MinSize is the smallest ring the model admits.
const MinSize = 3

// NoLandmark marks an anonymous ring.
const NoLandmark = -1

// GlobalDir is a direction in global coordinates, used by the engine and
// adversaries only — agents never observe it.
type GlobalDir int

const (
	// CW moves from v_i to v_{i+1}.
	CW GlobalDir = 1
	// CCW moves from v_i to v_{i-1}.
	CCW GlobalDir = -1
)

// Opposite returns the reverse global direction.
func (d GlobalDir) Opposite() GlobalDir { return -d }

// String implements fmt.Stringer.
func (d GlobalDir) String() string {
	switch d {
	case CW:
		return "cw"
	case CCW:
		return "ccw"
	default:
		return "invalid"
	}
}

// ErrTooSmall reports a requested ring below MinSize.
var ErrTooSmall = errors.New("ring: size below minimum of 3")

// Ring is an immutable ring footprint.
type Ring struct {
	n        int
	landmark int
}

// New returns a ring with n nodes and no landmark.
func New(n int) (*Ring, error) {
	return NewWithLandmark(n, NoLandmark)
}

// NewWithLandmark returns a ring with n nodes whose landmark is the given
// node index, or NoLandmark for an anonymous ring.
func NewWithLandmark(n, landmark int) (*Ring, error) {
	if err := Check(n, landmark); err != nil {
		return nil, err
	}
	return &Ring{n: n, landmark: landmark}, nil
}

// Check reports the error NewWithLandmark(n, landmark) would return,
// without building the ring.
func Check(n, landmark int) error {
	if n < MinSize {
		return fmt.Errorf("%w (got %d)", ErrTooSmall, n)
	}
	if landmark != NoLandmark && (landmark < 0 || landmark >= n) {
		return fmt.Errorf("ring: landmark %d out of range [0,%d)", landmark, n)
	}
	return nil
}

// Size returns the number of nodes n.
func (r *Ring) Size() int { return r.n }

// HasLandmark reports whether the ring has a landmark node.
func (r *Ring) HasLandmark() bool { return r.landmark != NoLandmark }

// Landmark returns the landmark node index, or NoLandmark.
func (r *Ring) Landmark() int { return r.landmark }

// IsLandmark reports whether node v is the landmark.
func (r *Ring) IsLandmark(v int) bool { return r.landmark != NoLandmark && v == r.landmark }

// Node normalizes an arbitrary integer position onto [0, n).
func (r *Ring) Node(v int) int {
	v %= r.n
	if v < 0 {
		v += r.n
	}
	return v
}

// Neighbor returns the node reached from v by one step in direction d.
func (r *Ring) Neighbor(v int, d GlobalDir) int {
	return r.Node(v + int(d))
}

// Edge returns the index of the edge used when leaving node v in direction
// d. Edge i joins v_i and v_{i+1}; leaving v clockwise uses edge v, leaving
// v counter-clockwise uses edge v-1.
func (r *Ring) Edge(v int, d GlobalDir) int {
	if d == CW {
		return r.Node(v)
	}
	return r.Node(v - 1)
}

// EdgeEndpoints returns the two endpoints (u, u+1) of edge e.
func (r *Ring) EdgeEndpoints(e int) (int, int) {
	e = r.Node(e)
	return e, r.Node(e + 1)
}

// CWDist returns the clockwise distance from a to b (number of CW steps).
func (r *Ring) CWDist(a, b int) int {
	return r.Node(b - a)
}

// Dist returns the (shortest-path) distance between a and b.
func (r *Ring) Dist(a, b int) int {
	d := r.CWDist(a, b)
	if other := r.n - d; other < d {
		return other
	}
	return d
}

// ValidEdge reports whether e is a valid edge index.
func (r *Ring) ValidEdge(e int) bool { return e >= 0 && e < r.n }
