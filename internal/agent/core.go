package agent

// Core implements the agent-local bookkeeping shared by all protocols in the
// paper: the counters of Section 3 (Ttime, Tsteps, Etime, Esteps, Btime), the
// LExplore landmark machinery of Section 3.2.2 (distance from the landmark,
// ring-size discovery, Ntime), and the SSYNC Tnodes measure of Section 4.
//
// Time convention (validated against Figure 2 and Figure 9, see DESIGN.md):
// rounds are 0-indexed and, in FSYNC, Ttime equals the current round index
// during the agent's activation. Counters advance once per activation, which
// in FSYNC is once per round; the SSYNC algorithms only consult
// activation-safe quantities (Esteps, Tnodes, Btime > 0).
//
// The zero value is ready to use and represents an agent that has not yet
// been activated.
type Core struct {
	// Ttime is the number of the current activation, 0-based. In FSYNC it
	// equals the current round index.
	Ttime int
	// Tsteps is the total number of successful edge traversals (including
	// passive transports) since the beginning of the protocol.
	Tsteps int
	// Etime is the number of activations since the current Explore call
	// (i.e. state entry) began; it is 0 during the activation that entered
	// the state.
	Etime int
	// Esteps is the number of successful edge traversals since the current
	// Explore call began. State transitions normally reset it; transitions
	// entered via ExploreNoResetEsteps (Figure 18) preserve it.
	Esteps int
	// Btime is the number of consecutive completed rounds the agent has
	// been waiting on its current port. It is 0 whenever the agent is not
	// blocked on a port.
	Btime int

	// Moved and Failed mirror the View flags of the current activation.
	Moved  bool
	Failed bool

	// pos is the agent's private walk coordinate: +1 per successful move
	// to its private right, -1 per move to its private left. minPos and
	// maxPos track the extremes reached.
	pos, minPos, maxPos int

	// Landmark tracking (LExplore).
	landmarkSeen bool
	landmarkPos  int
	size         int // discovered ring size; 0 while unknown
	learnedAt    int // Ttime at which size was discovered

	// Attempt bookkeeping.
	lastAttempt Dir
	prevOnPort  bool
	prevPortDir Dir

	// Event consumption: each of the observation predicates (meeting,
	// catches, caught) describes a single event of the current Look
	// snapshot, so it may trigger at most one guard per activation. When a
	// transition processes the new state in the same round, a consumed
	// event must not re-fire on the same snapshot (e.g. Init's caught
	// sends the agent to Forward; Forward's caught means a *second*
	// catch, not the one just handled).
	usedMeeting bool
	usedCatches bool
	usedCaught  bool

	started bool
}

// Begin folds the Look snapshot of a new activation into the counters. It
// must be called exactly once at the start of every Step.
func (c *Core) Begin(v *View) {
	if c.started {
		c.Ttime++
		c.Etime++
	}
	c.started = true
	c.Moved = v.Moved
	c.Failed = v.Failed
	c.usedMeeting = false
	c.usedCatches = false
	c.usedCaught = false

	// Resolve the outcome of the previous attempt.
	if c.lastAttempt != NoDir && v.Moved {
		// The move succeeded, directly or by passive transport.
		if c.lastAttempt == Right {
			c.pos++
		} else {
			c.pos--
		}
		c.Tsteps++
		c.Esteps++
		if c.pos > c.maxPos {
			c.maxPos = c.pos
		}
		if c.pos < c.minPos {
			c.minPos = c.pos
		}
	}

	// Blocked-wait streak: the agent sits on a port whose edge kept
	// missing. A direction change (new port) restarts the streak.
	switch {
	case !v.OnPort:
		c.Btime = 0
	case c.prevOnPort && c.prevPortDir == v.PortDir:
		c.Btime++
	default:
		c.Btime = 1
	}
	c.prevOnPort = v.OnPort
	c.prevPortDir = v.PortDir

	// Landmark bookkeeping: detect full loops to learn the ring size.
	if v.AtLandmark {
		switch {
		case !c.landmarkSeen:
			c.landmarkSeen = true
			c.landmarkPos = c.pos
		case c.size == 0 && c.pos != c.landmarkPos:
			d := c.pos - c.landmarkPos
			if d < 0 {
				d = -d
			}
			c.size = d
			c.learnedAt = c.Ttime
		}
	}
}

// Attempted records the decision taken this activation so the next Begin can
// resolve its outcome, and returns it. Every Step ends with it.
func (c *Core) Attempted(d Decision) Decision {
	c.lastAttempt = d.Dir
	if d.Terminate {
		c.lastAttempt = NoDir
	}
	return d
}

// EnterExplore starts a fresh Explore/LExplore call (a state transition):
// Etime restarts at 0 for the current activation and, unless keepSteps is
// set (the paper's ExploreNoResetEsteps), Esteps restarts too. Btime is
// call-scoped — "currently waiting" refers to the wait within the running
// Explore — so it also restarts; the physical streak resumes from 1 at the
// next activation if the agent is still blocked on the same port.
func (c *Core) EnterExplore(keepSteps bool) {
	c.Etime = 0
	c.Btime = 0
	if !keepSteps {
		c.Esteps = 0
	}
}

// Reset returns the Core to its initial state. LandmarkNoChirality uses it
// when both agents meet at the landmark and restart as a fresh instance of
// StartFromLandmarkNoChirality (Figure 13).
func (c *Core) Reset() {
	*c = Core{}
}

// Pos returns the agent's private walk coordinate (successful right moves
// minus successful left moves since the start).
func (c *Core) Pos() int { return c.pos }

// Tnodes is the span of the agent's private walk in edges,
// maxPos − minPos. See DESIGN.md for why the paper's "number of nodes
// perceived explored" is implemented as the edge span: it makes the PT
// guard Tnodes ≥ N sound for any N ≥ n and the ET guard with N = n−1 exact.
func (c *Core) Tnodes() int { return c.maxPos - c.minPos }

// KnowsN reports whether the agent has discovered the exact ring size by
// completing a loop around the landmark.
func (c *Core) KnowsN() bool { return c.size > 0 }

// Size returns the discovered ring size, or 0 while unknown.
func (c *Core) Size() int { return c.size }

// Ntime is the number of activations elapsed since the ring size was
// discovered; it is 0 while the size is unknown and 0 during the discovery
// activation itself.
func (c *Core) Ntime() int {
	if c.size == 0 {
		return 0
	}
	return c.Ttime - c.learnedAt
}

// DistFromLandmark returns |pos − landmarkPos| if the landmark has been
// seen; ok is false otherwise.
func (c *Core) DistFromLandmark() (dist int, ok bool) {
	if !c.landmarkSeen {
		return 0, false
	}
	d := c.pos - c.landmarkPos
	if d < 0 {
		d = -d
	}
	return d, true
}

// Meeting reports the paper's "meeting" predicate: this agent and at least
// one other agent are both in the node interior. A true result consumes the
// event for the rest of the activation (see the usedMeeting field).
func (c *Core) Meeting(v *View) bool {
	if c.usedMeeting || v.OnPort || v.OthersInNode == 0 {
		return false
	}
	c.usedMeeting = true
	return true
}

// Catches reports the paper's "catches" predicate for moving direction dir:
// the agent is in the node and another agent occupies the port in dir. A
// true result consumes the event for the rest of the activation.
func (c *Core) Catches(v *View, dir Dir) bool {
	if c.usedCatches || v.OnPort || v.OthersOnPort(dir) == 0 {
		return false
	}
	c.usedCatches = true
	return true
}

// CatchesAny is the direction-insensitive variant of Catches used for role
// entry in the landmark protocols: it fires when the agent is in the node
// interior and another agent occupies either port, returning the side of
// that port. It is the exact mirror of Caught, which guarantees that
// whenever one agent of a pair observes "caught", the other observes a
// catch in the same round — the pairing the BComm/FComm handshake needs
// (see DESIGN.md: with the paper's directional catches, an agent whose
// direction schedule points away can trigger caught without becoming B,
// leaving an F with no partner and unsound termination).
// A true result consumes the catches event for the rest of the activation.
func (c *Core) CatchesAny(v *View) (Dir, bool) {
	if c.usedCatches || v.OnPort {
		return NoDir, false
	}
	side := NoDir
	switch {
	case v.OthersOnLeftPort > 0:
		side = Left
	case v.OthersOnRightPort > 0:
		side = Right
	default:
		return NoDir, false
	}
	c.usedCatches = true
	return side, true
}

// Caught reports the paper's "caught" predicate: the agent is on a port
// after a failed move and another agent is observed in the node interior.
// A true result consumes the event for the rest of the activation.
func (c *Core) Caught(v *View) bool {
	if c.usedCaught || !v.OnPort || v.Moved || v.OthersInNode == 0 {
		return false
	}
	c.usedCaught = true
	return true
}

// MaxChain bounds same-round state transitions: a Step whose guards make
// MaxChain transitions without producing a decision reports GuardCycle.
//
// A protocol built on Core runs one activation as
//
//	p.c.Begin(v)
//	for range agent.MaxChain {
//		if d, final := p.eval(v); final {
//			return p.c.Attempted(d), nil
//		}
//	}
//	return agent.Decision{}, agent.GuardCycle(p.State())
//
// where eval returns final=false after performing a state transition that
// must be processed again in the same round (the paper's "change state and
// process it (in the same round)" semantics). eval is a static call, so the
// compiler may inline it into Step.
const MaxChain = 32

// GuardCycle is the error a Step returns when its state transitions looped
// MaxChain times without producing a decision; state names the state the
// loop was in.
func GuardCycle(state string) error {
	return &guardCycleError{state: state, steps: MaxChain}
}
