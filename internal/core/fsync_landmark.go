package core

import (
	"dynring/internal/agent"
	"dynring/internal/ids"
)

// lmMode selects which of the three landmark algorithms an instance runs.
type lmMode int

const (
	// lmChirality is Algorithm LandmarkWithChirality (Figure 4).
	lmChirality lmMode = iota + 1
	// lmAtLandmark is Algorithm StartFromLandmarkNoChirality (Figure 8).
	lmAtLandmark
	// lmArbitrary is Algorithm LandmarkNoChirality (Figure 13).
	lmArbitrary
)

// lmState enumerates the union of states of Figures 4, 8 and 13.
type lmState int

const (
	lmInit4               lmState = iota + 1 // Fig 4 Init
	lmInitOuter                              // Fig 13 Init
	lmFirstBlockOuter                        // Fig 13 FirstBlock
	lmAtLandmarkOuter                        // Fig 13 AtLandmark
	lmAtLandmarkOuterWait                    // Fig 13 AtLandmark, synchronization round
	lmInitL                                  // Fig 8 InitL
	lmFirstBlockL                            // Fig 8 FirstBlockL
	lmAtLandmarkL                            // Fig 8 AtLandmarkL
	lmAtLandmarkLWait                        // Fig 8 AtLandmarkL, synchronization round
	lmHappy                                  // Fig 8 Happy
	lmReverse                                // Fig 8 Reverse
	lmBounce                                 // Fig 4 Bounce
	lmReturn                                 // Fig 4 Return
	lmForward                                // Fig 4 Forward
	lmBCommSignal                            // Fig 4 BComm after signalling (Move right)
	lmBCommWait                              // Fig 4 BComm after waiting one round
	lmFCommSignal                            // Fig 4 FComm after signalling (Move left)
	lmFCommWait                              // Fig 4 FComm after stepping into the node
	lmDone
)

var lmStateNames = map[lmState]string{
	lmInit4:               "Init",
	lmInitOuter:           "Init",
	lmFirstBlockOuter:     "FirstBlock",
	lmAtLandmarkOuter:     "AtLandmark",
	lmAtLandmarkOuterWait: "AtLandmark/wait",
	lmInitL:               "InitL",
	lmFirstBlockL:         "FirstBlockL",
	lmAtLandmarkL:         "AtLandmarkL",
	lmAtLandmarkLWait:     "AtLandmarkL/wait",
	lmHappy:               "Happy",
	lmReverse:             "Reverse",
	lmBounce:              "Bounce",
	lmReturn:              "Return",
	lmForward:             "Forward",
	lmBCommSignal:         "BComm/signal",
	lmBCommWait:           "BComm/wait",
	lmFCommSignal:         "FComm/signal",
	lmFCommWait:           "FComm/wait",
	lmDone:                "Terminate",
}

// LandmarkExplorer implements the three landmark-based FSYNC algorithms of
// Section 3.2: exploration with explicit termination of a non-anonymous
// ring by two anonymous agents, in O(n) time with chirality (Theorem 6) and
// O(n·log n) time without (Theorems 7 and 8).
//
// The three variants share the role states Bounce/Return/Forward and the
// termination handshake BComm/FComm. When two agents catch each other they
// break symmetry: the caught agent becomes F (keeps its direction), the
// catching agent becomes B; at that moment each agent rebases its notion of
// "left" on the catch geometry, which realises the paper's remark that a
// catch establishes chirality.
type LandmarkExplorer struct {
	c    agent.Core
	mode lmMode
	st   lmState
	dir  agent.Dir // current LExplore direction of the pre-role states
	flip bool      // true when the role states' "left" is the private right

	bounceSteps int
	bounceSet   bool
	returnSteps int

	k1, k2, k3 int
	sched      ids.Schedule
	hasID      bool
	reversedAt int  // Ttime of the last entry into Reverse
	revTerm    bool // Reverse entered with n known (terminating variant)
	skip       bool // suppress guards once after a BComm/FComm resume
}

// NewLandmarkWithChirality returns Algorithm LandmarkWithChirality
// (Figure 4). Both agents must share a common orientation.
func NewLandmarkWithChirality() *LandmarkExplorer {
	return &LandmarkExplorer{mode: lmChirality, st: lmInit4, dir: agent.Left}
}

// NewStartFromLandmarkNoChirality returns Algorithm
// StartFromLandmarkNoChirality (Figure 8). Both agents must start on the
// landmark node.
func NewStartFromLandmarkNoChirality() *LandmarkExplorer {
	return &LandmarkExplorer{mode: lmAtLandmark, st: lmInitL, dir: agent.Left}
}

// NewLandmarkNoChirality returns Algorithm LandmarkNoChirality (Figure 13):
// arbitrary starting positions, no chirality.
func NewLandmarkNoChirality() *LandmarkExplorer {
	return &LandmarkExplorer{mode: lmArbitrary, st: lmInitOuter, dir: agent.Left}
}

// Step implements agent.Protocol.
func (p *LandmarkExplorer) Step(v *agent.View) (agent.Decision, error) {
	p.c.Begin(v)
	for range agent.MaxChain {
		if d, final := p.eval(v); final {
			return p.c.Attempted(d), nil
		}
	}
	return agent.Decision{}, agent.GuardCycle(p.State())
}

// State implements agent.Protocol.
func (p *LandmarkExplorer) State() string { return lmStateNames[p.st] }

// Clone implements agent.Protocol.
func (p *LandmarkExplorer) Clone() agent.Protocol {
	cp := *p
	return &cp
}

// eff maps the role states' canonical directions onto the agent's private
// ones according to the orientation rebasing performed at the first catch.
func (p *LandmarkExplorer) eff(d agent.Dir) agent.Dir {
	if p.flip {
		return d.Opposite()
	}
	return d
}

// becomeB enters state Bounce as the catching agent; side is the private
// direction of the port F occupies, which becomes the role frame's "left".
func (p *LandmarkExplorer) becomeB(side agent.Dir) {
	p.flip = side == agent.Right
	p.st = lmBounce
	p.c.EnterExplore(false)
}

// becomeF enters state Forward as the caught agent; its blocked port's
// direction becomes the role frame's "left".
func (p *LandmarkExplorer) becomeF(v *agent.View) {
	p.flip = v.PortDir == agent.Right
	p.st = lmForward
	p.c.EnterExplore(false)
}

// roleEntry checks the catch events shared by every pre-role state and, if
// one fires, performs the role transition (B for the catcher, F for the
// caught agent). The catcher check is the port-side based CatchesAny: it
// mirrors Caught exactly, so the two agents of a catch always take their
// roles in the same round (see DESIGN.md).
func (p *LandmarkExplorer) roleEntry(v *agent.View) bool {
	if side, ok := p.c.CatchesAny(v); ok {
		p.becomeB(side)
		return true
	}
	if p.c.Caught(v) {
		p.becomeF(v)
		return true
	}
	return false
}

func (p *LandmarkExplorer) to(s lmState) {
	p.st = s
	p.c.EnterExplore(false)
}

// happyBound is the Happy state's termination round,
// 32·((3⌈log n⌉+3)·5·n)+1 (Figure 8).
func happyBound(n int) int { return reverseBound(n) + 1 }

// reverseBound is the Reverse state's termination round when n is known,
// 32·((3⌈log n⌉+3)·5·n) (Figure 8, Lemma 3 with c = 5).
func reverseBound(n int) int { return 32 * (3*ceilLog2(n) + 3) * 5 * n }

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int {
	k, pow := 0, 1
	for pow < n {
		k++
		pow <<= 1
	}
	return k
}

func (p *LandmarkExplorer) eval(v *agent.View) (agent.Decision, bool) {
	c := &p.c
	switch p.st {

	case lmInit4:
		// LExplore(left | Ntime > 2·size: Terminate; catches: Bounce;
		//                 caught: Forward)
		switch {
		case c.KnowsN() && c.Ntime() > 2*c.Size():
			p.st = lmDone
			return agent.Terminate, true
		case p.roleEntry(v):
			return agent.Decision{}, false
		default:
			return agent.Move(agent.Left), true
		}

	case lmInitOuter, lmInitL:
		// LExplore(dir | n known: Happy; Btime > 0: FirstBlock(L);
		//                catches: Bounce; caught: Forward)
		//
		// Deviation from the figure (see DESIGN.md): the catch events are
		// evaluated first. If an agent is both blocked (Btime > 0) and
		// caught in the same round, processing Btime first would leave
		// the catcher in role B with no matching F, and the role-paired
		// termination rules of Bounce/Return/Forward become unsound.
		switch {
		case p.roleEntry(v):
			return agent.Decision{}, false
		case c.KnowsN():
			p.to(lmHappy)
			return agent.Decision{}, false
		case c.Btime > 0:
			if p.st == lmInitL {
				p.k1 = c.Ttime - 1 // Figure 8: k1 ← Ttime−1
				p.to(lmFirstBlockL)
			} else {
				p.k1 = c.Ttime // Figure 13: k1 ← Ttime
				p.to(lmFirstBlockOuter)
			}
			p.dir = agent.Right
			return agent.Decision{}, false
		default:
			return agent.Move(p.dir), true
		}

	case lmFirstBlockOuter, lmFirstBlockL:
		// LExplore(dir | n known: Happy; isLandmark: AtLandmark(L);
		//                Btime > 0: Ready; catches: Bounce; caught: Forward)
		// Catch events first, as in Init (role-handshake consistency).
		switch {
		case p.roleEntry(v):
			return agent.Decision{}, false
		case c.KnowsN():
			p.to(lmHappy)
			return agent.Decision{}, false
		case v.AtLandmark:
			p.k3 = c.Etime
			atLandmark, wait := lmAtLandmarkOuter, lmAtLandmarkOuterWait
			if p.st == lmFirstBlockL {
				atLandmark, wait = lmAtLandmarkL, lmAtLandmarkLWait
			}
			p.to(atLandmark)
			if v.OthersInNode > 0 {
				// Both agents may be at the landmark: synchronize by
				// waiting one round without moving.
				p.st = wait
				return agent.Stay, true
			}
			return agent.Decision{}, false
		case c.Btime > 0:
			return p.enterReady()
		default:
			return agent.Move(p.dir), true
		}

	case lmAtLandmarkOuterWait, lmAtLandmarkLWait:
		// Synchronization round of AtLandmark(L): if the other agent also
		// waited in the node, both performed the same check.
		if v.AtLandmark && v.OthersInNode > 0 {
			if p.st == lmAtLandmarkLWait {
				// Figure 8/12: both bounced off the same edge; the
				// ring is explored.
				p.st = lmDone
				return agent.Terminate, true
			}
			// Figure 13: restart as a fresh instance started at the
			// landmark.
			*p = LandmarkExplorer{mode: p.mode, st: lmInitL, dir: agent.Left}
			return agent.Decision{}, false
		}
		if p.st == lmAtLandmarkLWait {
			p.st = lmAtLandmarkL
		} else {
			p.st = lmAtLandmarkOuter
		}
		return agent.Decision{}, false

	case lmAtLandmarkOuter, lmAtLandmarkL:
		// LExplore(dir | n known: Happy; Btime > 0: Ready;
		//                catches: Bounce; caught: Forward)
		// Catch events first, as in Init (role-handshake consistency).
		switch {
		case p.roleEntry(v):
			return agent.Decision{}, false
		case c.KnowsN():
			p.to(lmHappy)
			return agent.Decision{}, false
		case c.Btime > 0:
			return p.enterReady()
		default:
			return agent.Move(p.dir), true
		}

	case lmHappy:
		// LExplore(dir | Ttime ≥ 32((3⌈log n⌉+3)·5·n)+1: Terminate;
		//                catches: Bounce; caught: Forward)
		switch {
		case c.Ttime >= happyBound(c.Size()):
			p.st = lmDone
			return agent.Terminate, true
		case p.roleEntry(v):
			return agent.Decision{}, false
		default:
			return agent.Move(p.dir), true
		}

	case lmReverse:
		if p.revTerm {
			// LExplore(dir | Ttime ≥ 32((3⌈log n⌉+3)·5·n): Terminate;
			//                catches: Bounce; caught: Forward)
			switch {
			case c.Ttime >= reverseBound(c.Size()):
				p.st = lmDone
				return agent.Terminate, true
			case p.roleEntry(v):
				return agent.Decision{}, false
			default:
				return agent.Move(p.dir), true
			}
		}
		// LExplore(dir | switch(Ttime): Reverse; catches: Bounce;
		//                caught: Forward)
		switch {
		case p.roleEntry(v):
			return agent.Decision{}, false
		case p.sched.Switch(c.Ttime) && p.reversedAt != c.Ttime:
			p.enterReverse()
			return agent.Decision{}, false
		default:
			return agent.Move(p.dir), true
		}

	case lmBounce:
		// LExplore(right | meeting: Terminate;
		//                  Etime > 2·Esteps ∨ Ntime > 0: Return;
		//                  catches: BComm)
		if p.skip {
			p.skip = false
			return agent.Move(p.eff(agent.Right)), true
		}
		switch {
		case c.Meeting(v):
			p.st = lmDone
			return agent.Terminate, true
		case c.Etime > 2*c.Esteps || (c.KnowsN() && c.Ntime() > 0):
			p.bounceSteps = c.Esteps
			p.bounceSet = true
			p.to(lmReturn)
			return agent.Decision{}, false
		case c.Catches(v, p.eff(agent.Right)):
			return p.enterBComm()
		default:
			return agent.Move(p.eff(agent.Right)), true
		}

	case lmReturn:
		// LExplore(left | Ntime > 3·size ∨ caught: Terminate;
		//                 catches: BComm)
		switch {
		case (c.KnowsN() && c.Ntime() > 3*c.Size()) || c.Caught(v):
			p.st = lmDone
			return agent.Terminate, true
		case c.Catches(v, p.eff(agent.Left)):
			return p.enterBComm()
		default:
			return agent.Move(p.eff(agent.Left)), true
		}

	case lmForward:
		// LExplore(left | Ntime ≥ 7·size ∨ meeting ∨ catches: Terminate;
		//                 caught: FComm)
		if p.skip {
			p.skip = false
			return agent.Move(p.eff(agent.Left)), true
		}
		switch {
		case (c.KnowsN() && c.Ntime() >= 7*c.Size()) || c.Meeting(v) || c.Catches(v, p.eff(agent.Left)):
			p.st = lmDone
			return agent.Terminate, true
		case c.Caught(v):
			return p.enterFComm()
		default:
			return agent.Move(p.eff(agent.Left)), true
		}

	case lmBCommSignal, lmFCommSignal:
		// "Terminate in the next round" after signalling.
		p.st = lmDone
		return agent.Terminate, true

	case lmBCommWait:
		if v.OthersInNode > 0 {
			// Agent F waited to learn whether to terminate: resume.
			p.to(lmBounce)
			p.skip = true
			return agent.Decision{}, false
		}
		// F left, or tried to leave and is on the port: terminate.
		p.st = lmDone
		return agent.Terminate, true

	case lmFCommWait:
		if v.OthersInNode > 0 {
			p.to(lmForward)
			p.skip = true
			return agent.Decision{}, false
		}
		p.st = lmDone
		return agent.Terminate, true

	default:
		return agent.Terminate, true
	}
}

// enterReady performs state Ready (Figure 8): derive the ID from k1,k2,k3,
// install the direction schedule, and process Reverse in the same round.
func (p *LandmarkExplorer) enterReady() (agent.Decision, bool) {
	p.k2 = p.c.Etime
	p.sched = ids.NewSchedule(ids.Interleave(p.k1, p.k2, p.k3))
	p.hasID = true
	p.enterReverse()
	return agent.Decision{}, false
}

// enterReverse (re-)enters state Reverse: the direction comes from the ID
// schedule and the LExplore variant is fixed by whether n is known now.
func (p *LandmarkExplorer) enterReverse() {
	p.st = lmReverse
	p.reversedAt = p.c.Ttime
	p.revTerm = p.c.KnowsN()
	if p.sched.Right(p.c.Ttime) {
		p.dir = agent.Right
	} else {
		p.dir = agent.Left
	}
	p.c.EnterExplore(false)
}

// enterBComm performs the entry of state BComm (Figure 4).
func (p *LandmarkExplorer) enterBComm() (agent.Decision, bool) {
	p.returnSteps = p.c.Esteps
	if (p.bounceSet && p.returnSteps <= 2*p.bounceSteps) || p.c.KnowsN() {
		// Both waited on the same edge, or the loop is complete: signal
		// termination by leaving, then terminate next round.
		p.st = lmBCommSignal
		return agent.Move(p.eff(agent.Right)), true
	}
	p.st = lmBCommWait
	return agent.Stay, true
}

// enterFComm performs the entry of state FComm (Figure 4).
func (p *LandmarkExplorer) enterFComm() (agent.Decision, bool) {
	if p.c.KnowsN() {
		p.st = lmFCommSignal
		return agent.Move(p.eff(agent.Left)), true
	}
	// Move from the port to the node and wait to see what B does.
	p.st = lmFCommWait
	return agent.Stay, true
}
