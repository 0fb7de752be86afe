package agent

// Dir is a movement direction in the agent's private orientation.
//
// The zero value is NoDir ("nil" in the paper): the agent stays at its node,
// stepping off a port into the node interior if it was on one.
type Dir int

const (
	// NoDir means "do not move" (the paper's direction = nil).
	NoDir Dir = iota
	// Left is the agent's private left.
	Left
	// Right is the agent's private right.
	Right
)

// Opposite returns the reverse direction; NoDir is its own opposite.
func (d Dir) Opposite() Dir {
	switch d {
	case Left:
		return Right
	case Right:
		return Left
	default:
		return NoDir
	}
}

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Left:
		return "left"
	case Right:
		return "right"
	case NoDir:
		return "nil"
	default:
		return "invalid"
	}
}

// View is the snapshot an agent obtains during its Look phase. All fields
// describe the configuration at the beginning of the current round, before
// any agent moves, and are restricted to what the paper allows an agent to
// observe: its own position within the node and the positions of co-located
// agents (Section 2.1, step 1). Protocol.Step receives it by reference, valid
// only for the duration of the call.
type View struct {
	// OnPort reports whether the agent is currently positioned on a port
	// (it entered the port in an earlier round and the move failed, or it
	// is still waiting there).
	OnPort bool
	// PortDir is the direction of the port the agent occupies, in its own
	// orientation. Valid only when OnPort is true.
	PortDir Dir
	// AtLandmark reports whether the agent's current node is the landmark.
	// Always false on anonymous rings.
	AtLandmark bool
	// OthersInNode is the number of other agents positioned in this node's
	// interior (not on a port).
	OthersInNode int
	// OthersOnLeftPort and OthersOnRightPort are the numbers of other
	// agents positioned on this node's left / right port, in the observing
	// agent's orientation. On a ring each port holds at most one agent, so
	// the values are 0 or 1; they are counts for interface uniformity.
	OthersOnLeftPort  int
	OthersOnRightPort int
	// Moved reports whether the agent's previous movement attempt
	// eventually succeeded — either directly in its last active round or,
	// under Passive Transport, while it slept on the port. It mirrors the
	// paper's private variable "moved".
	Moved bool
	// Failed reports whether, in the agent's previous active round, it
	// tried to position itself on a port and lost the mutual-exclusion
	// race (the paper's "failed" predicate). It is false when the agent
	// gained the port but the edge was missing.
	Failed bool
}

// Reset zeroes the view in place. The engine keeps scratch Views in each
// World and resets one before each Look instead of allocating a fresh
// snapshot, which is part of the simulator's zero-allocation round contract.
func (v *View) Reset() { *v = View{} }

// OthersOnPort returns the number of other agents on the port in direction d.
func (v *View) OthersOnPort(d Dir) int {
	switch d {
	case Left:
		return v.OthersOnLeftPort
	case Right:
		return v.OthersOnRightPort
	default:
		return 0
	}
}

// Decision is the outcome of an agent's Compute phase.
type Decision struct {
	// Dir is the direction the agent attempts to move in, or NoDir to stay.
	Dir Dir
	// Terminate enters the terminal state: the agent stops forever and is
	// removed from activation. Dir is ignored when Terminate is set.
	Terminate bool
}

// Stay is the decision to remain at the current node without terminating.
var Stay = Decision{Dir: NoDir}

// Move returns the decision to attempt a move in direction d.
func Move(d Dir) Decision { return Decision{Dir: d} }

// Terminate is the decision to enter the terminal state.
var Terminate = Decision{Terminate: true}
