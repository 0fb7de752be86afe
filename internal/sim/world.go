package sim

import (
	"errors"
	"fmt"
	"strings"

	"dynring/internal/agent"
	"dynring/internal/ring"
)

// NoEdge is the adversary's answer for "no edge removed this round".
const NoEdge = -1

// Model selects the synchrony/transport regime of a run.
type Model int

const (
	// ModelDefault is the explicit "no model chosen" sentinel: callers that
	// see it substitute an algorithm-specific default (the first entry of
	// the protocol's spec). It is the zero value on purpose, so a Model
	// field left unset reads as "default" rather than as a valid regime.
	// The engine itself rejects it: resolve the default before NewWorld.
	ModelDefault Model = 0

	// FSync activates every agent in every round.
	FSync Model = iota
	// SSyncNS is semi-synchronous with No Simultaneity: sleeping agents
	// never move.
	SSyncNS
	// SSyncPT is semi-synchronous with Passive Transport: an agent
	// sleeping on a port is carried over the edge whenever it is present.
	SSyncPT
	// SSyncET is semi-synchronous with Eventual Transport: sleeping agents
	// never move, but an agent sleeping on a port whose edge appears
	// infinitely often is eventually activated in a round where the edge
	// is present (enforced by the engine's fairness monitor).
	SSyncET
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelDefault:
		return "default"
	case FSync:
		return "FSYNC"
	case SSyncNS:
		return "SSYNC/NS"
	case SSyncPT:
		return "SSYNC/PT"
	case SSyncET:
		return "SSYNC/ET"
	default:
		return "invalid"
	}
}

// SemiSynchronous reports whether the model admits sleeping agents.
func (m Model) SemiSynchronous() bool { return m != FSync }

// Intent describes, for the adversary, what an active agent resolved to do
// this round (after Compute, before movement).
type Intent struct {
	// Agent is the agent id.
	Agent int
	// From is the agent's node at the beginning of the round.
	From int
	// Move reports whether the agent wants to traverse an edge.
	Move bool
	// Dir is the desired global direction; meaningful only when Move.
	Dir ring.GlobalDir
	// TargetEdge is the edge the agent would traverse, or NoEdge.
	TargetEdge int
	// Terminate reports whether the agent enters its terminal state.
	Terminate bool
}

// Adversary jointly controls the activation schedule and the missing edge.
// Both methods may inspect the world freely (the proof adversaries are
// omniscient) and may use World.Peek to predict agents' decisions.
type Adversary interface {
	// Activate returns the ids of the agents active in round t. It is not
	// consulted in FSYNC. The engine filters terminated agents, removes
	// duplicates and adds agents forced by the fairness monitors; if the
	// resulting set is empty while live agents remain, the run aborts with
	// ErrEmptyActivation. The engine only reads the returned slice during
	// the current round, so implementations may reuse its backing array.
	Activate(t int, w *World) []int

	// MissingEdge returns the edge absent in round t, or NoEdge. It is
	// called after the active agents' decisions are fixed and receives
	// them as intents. Returning an invalid index aborts the run. The
	// intents slice is engine-owned scratch, valid only for the duration
	// of the call: implementations must copy it to retain it.
	MissingEdge(t int, w *World, intents []Intent) int
}

// MultiAdversary is the optional extension for dynamics models that may
// remove several edges per round — the capped-removal regime, which relaxes
// the paper's 1-interval connectivity (at most one missing edge, so the ring
// always stays connected) to "at most r missing edges", under which the ring
// may temporarily disconnect. The engine consults MissingEdges instead of
// MissingEdge when an adversary implements this interface.
type MultiAdversary interface {
	Adversary

	// MissingEdges appends the edges absent in round t to buf and returns
	// the extended slice. It is called under the same contract as
	// MissingEdge: decisions are fixed, intents are engine-owned scratch.
	// buf is engine-owned scratch with length 0 and capacity Ring().Size(),
	// so appending at most one entry per edge never allocates. The engine
	// deduplicates the returned edges, ignores NoEdge entries, and aborts
	// the run on any other invalid index.
	MissingEdges(t int, w *World, intents []Intent, buf []int) []int
}

// TieBreaker optionally resolves port contention. contenders is sorted and
// has at least two entries; the returned id must be one of them. The slice
// is engine-owned scratch, valid only for the duration of the call.
type TieBreaker interface {
	BreakTie(t int, w *World, node int, dir ring.GlobalDir, contenders []int) int
}

// Fingerprinter is implemented by protocols and adversaries whose
// decision-relevant memory can be summarized in a bounded string. When every
// component of a run provides fingerprints, the runner can certify infinite
// non-progress by detecting a repeated configuration.
type Fingerprinter interface {
	Fingerprint() string
}

// Observer receives one record per completed round.
type Observer interface {
	ObserveRound(rec RoundRecord)
}

// AgentSnapshot is an agent's public configuration after a round.
type AgentSnapshot struct {
	Node       int
	OnPort     bool
	PortDir    ring.GlobalDir
	Terminated bool
	Moved      bool
	State      string
}

// RoundRecord describes one completed round.
type RoundRecord struct {
	Round  int
	Active []int
	// MissingEdge is the round's missing edge, or NoEdge. When a
	// MultiAdversary removed several edges it holds the first; consult
	// MissingEdges for the full set.
	MissingEdge int
	// MissingEdges lists every edge absent this round, in the order the
	// adversary produced them (first occurrence wins on duplicates). It is
	// nil when no edge was missing. Consumers that predate the capped-
	// removal models may keep reading MissingEdge; the two fields agree
	// whenever at most one edge is missing.
	MissingEdges []int
	Agents       []AgentSnapshot
}

// EdgeMissing reports whether edge e was absent in this round. It is the
// authoritative reading of the record's two dynamics fields: the
// MissingEdges set when populated, the legacy single MissingEdge otherwise.
func (r RoundRecord) EdgeMissing(e int) bool {
	if r.MissingEdges != nil {
		for _, m := range r.MissingEdges {
			if m == e {
				return true
			}
		}
		return false
	}
	return r.MissingEdge != NoEdge && r.MissingEdge == e
}

// Missing returns the round's full missing-edge set under the same rule as
// EdgeMissing: nil when no edge was absent. The returned slice may alias
// MissingEdges; callers must not modify it.
func (r RoundRecord) Missing() []int {
	if r.MissingEdges != nil {
		return r.MissingEdges
	}
	if r.MissingEdge != NoEdge {
		return []int{r.MissingEdge}
	}
	return nil
}

// Config assembles a world.
type Config struct {
	// Ring is the footprint topology.
	Ring *ring.Ring
	// Model is the synchrony/transport regime.
	Model Model
	// Starts holds each agent's initial node (agents may share nodes).
	Starts []int
	// Orients maps each agent's private Right to a global direction.
	// Common orientation for all agents models chirality.
	Orients []ring.GlobalDir
	// Protocols holds one protocol instance per agent. Instances must be
	// distinct (each owns private memory) but all agents run the same
	// algorithm in the paper's setting.
	Protocols []agent.Protocol
	// Adversary controls dynamics; nil means always-connected ring with
	// full activation.
	Adversary Adversary
	// TieBreak optionally overrides lowest-id port contention resolution.
	TieBreak TieBreaker
	// Observer optionally receives round records.
	Observer Observer
	// FairnessBound is the maximum number of consecutive rounds an SSYNC
	// agent may sleep before the engine force-activates it, and the
	// maximum ET transport debt (rounds its edge was present while it
	// slept on the port) before force-activation with an edge-removal
	// veto. Zero selects DefaultFairnessBound(n).
	FairnessBound int
}

// DefaultFairnessBound is the default SSYNC fairness horizon for a ring of
// size n: long enough that the paper's adversarial constructions fit inside
// a fair prefix, short enough that runs stay finite.
func DefaultFairnessBound(n int) int { return 16*n + 64 }

// Errors reported by the engine.
var (
	ErrAllTerminated     = errors.New("sim: all agents terminated")
	ErrEmptyActivation   = errors.New("sim: adversary produced an empty activation set")
	ErrInvalidEdge       = errors.New("sim: adversary removed an invalid edge")
	ErrConfig            = errors.New("sim: invalid configuration")
	ErrProtocolFault     = errors.New("sim: protocol fault")
	ErrInvariantViolated = errors.New("sim: internal invariant violated")
)

type agentRT struct {
	node     int
	onPort   bool
	portDir  ring.GlobalDir // valid when onPort
	term     bool
	moved    bool
	failed   bool
	orient   ring.GlobalDir // global direction of the agent's private Right
	proto    agent.Protocol
	moves    int
	lastSeen int // round of last activation
	etDebt   int // rounds the edge at its port was present while it slept
}

// portReq is one pending port-grab request: agent id wants the port of node
// in global direction dir. Requests are collected in activation (ascending
// id) order, so grouping by (node, dir) preserves the contract that
// contenders are sorted and the default winner is the lowest id.
type portReq struct {
	id   int
	node int
	dir  ring.GlobalDir
}

// plan is an active agent's decision resolved to global terms: the
// direction it wants to move in, 0 when it stays or terminates.
type plan struct {
	dir       ring.GlobalDir
	terminate bool
}

// scratch is Step's per-round working storage, sized once by Reset so the
// steady state allocates nothing. Every field but agentIDs is valid only
// during the round being resolved.
type scratch struct {
	active     []int     // activation set, capacity = #agents
	intents    []Intent  // fixed intents handed to the adversary, one per activation slot
	plans      []plan    // the same decisions, private to the engine, one per activation slot
	mark       []bool    // per-agent bits for dedup/sort in selectActive
	reqs       []portReq // port-grab requests in activation order
	contenders []int     // contenders of the port being resolved
	agentIDs   []int     // 0..m-1 until the next Reset, handed out read-only by AgentIDs

	missingReq  []int  // adversary's raw missing-edge request, capacity = #edges
	missing     []int  // validated, deduplicated missing edges of the round
	missingBits []bool // per-edge membership bits for the missing set
}

// grow sizes the scratch for m agents on a ring of n nodes, reusing prior
// capacity. mark and missingBits are maintained all-false between rounds.
func (s *scratch) grow(m, n int) {
	s.growMissing(n)
	if cap(s.active) < m {
		s.active = make([]int, 0, m)
	}
	s.active = s.active[:0]
	if len(s.intents) < m {
		s.intents = make([]Intent, m)
	}
	if len(s.plans) < m {
		s.plans = make([]plan, m)
	}
	if len(s.mark) < m {
		s.mark = make([]bool, m)
	} else {
		clear(s.mark)
	}
	if cap(s.reqs) < m {
		s.reqs = make([]portReq, 0, m)
	}
	s.reqs = s.reqs[:0]
	if cap(s.contenders) < m {
		s.contenders = make([]int, 0, m)
	}
	s.contenders = s.contenders[:0]
	if cap(s.agentIDs) < m {
		s.agentIDs = make([]int, m)
	}
	s.agentIDs = s.agentIDs[:m]
	for i := range s.agentIDs {
		s.agentIDs[i] = i
	}
}

// growMissing sizes the missing-edge scratch for a ring of n edges.
func (s *scratch) growMissing(n int) {
	if cap(s.missingReq) < n {
		s.missingReq = make([]int, 0, n)
	}
	s.missingReq = s.missingReq[:0]
	if cap(s.missing) < n {
		s.missing = make([]int, 0, n)
	}
	s.missing = s.missing[:0]
	if len(s.missingBits) < n {
		s.missingBits = make([]bool, n)
	} else {
		s.missingBits = s.missingBits[:len(s.missingBits)]
		clear(s.missingBits)
	}
}

// World is the mutable run state.
type World struct {
	ring     *ring.Ring
	n        int // ring size, cached for the engine's wrap-by-compare steps
	model    Model
	agents   []agentRT
	adv      Adversary
	madv     MultiAdversary // non-nil when adv supports multi-edge removal
	tie      TieBreaker
	obs      Observer
	fairness int

	round        int
	live         int // agents not yet terminated
	visited      []bool
	visitedCount int
	exploredAt   int // round after which all nodes had been visited; -1 if not yet
	termAt       []int
	// stepChanged reports whether the most recent Step mutated any durable
	// state (positions, port occupancy, moved/failed flags, counters,
	// termination, coverage, ET debt). It is the engine-state half of the
	// quiescence-leap fixed-point certificate; see leap.go.
	stepChanged bool
	// forcedActivation reports whether the most recent Step's activation
	// set contained a fairness- or ET-forced agent beyond the adversary's
	// own picks. Such a round cannot seed a leap: its activation set is not
	// the set the adversary would reproduce in the skipped rounds.
	forcedActivation bool

	scratch scratch
	// look and peek are the reusable Look snapshots fillView fills: Step
	// hands &look to each active agent's protocol, Peek hands &peek to a
	// clone. They are separate because adversaries peek mid-round (from
	// Activate and MissingEdge). Being World-held, neither escapes to the
	// heap when passed through the Protocol interface.
	look agent.View
	peek agent.View
}

// NewWorld validates cfg and builds the initial configuration. All starting
// nodes count as visited.
func NewWorld(cfg Config) (*World, error) {
	w := &World{}
	if err := w.Reset(cfg); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset validates cfg and reinitializes w in place to its round-0
// configuration, reusing w's allocations (visited bitmap, agent table,
// per-round scratch) whenever their capacity suffices. It is the batched
// execution hook: a runner that executes scenarios back-to-back keeps one
// World per worker and Resets it per scenario instead of building a new one.
// On error the world may be partially modified and must not be stepped; a
// later successful Reset makes it usable again.
func (w *World) Reset(cfg Config) error {
	if cfg.Ring == nil {
		return fmt.Errorf("%w: nil ring", ErrConfig)
	}
	switch cfg.Model {
	case FSync, SSyncNS, SSyncPT, SSyncET:
	default:
		return fmt.Errorf("%w: unknown model %d", ErrConfig, int(cfg.Model))
	}
	m := len(cfg.Starts)
	if m == 0 {
		return fmt.Errorf("%w: no agents", ErrConfig)
	}
	if len(cfg.Orients) != m || len(cfg.Protocols) != m {
		return fmt.Errorf("%w: starts/orients/protocols length mismatch (%d/%d/%d)",
			ErrConfig, m, len(cfg.Orients), len(cfg.Protocols))
	}
	fair := cfg.FairnessBound
	if fair <= 0 {
		fair = DefaultFairnessBound(cfg.Ring.Size())
	}
	n := cfg.Ring.Size()

	w.ring = cfg.Ring
	w.n = n
	w.model = cfg.Model
	w.adv = cfg.Adversary
	w.madv, _ = cfg.Adversary.(MultiAdversary)
	w.tie = cfg.TieBreak
	w.obs = cfg.Observer
	w.fairness = fair
	w.round = 0
	w.live = m
	w.stepChanged = false
	w.forcedActivation = false
	if cap(w.visited) < n {
		w.visited = make([]bool, n)
	} else {
		w.visited = w.visited[:n]
		clear(w.visited)
	}
	w.visitedCount = 0
	w.exploredAt = -1
	if cap(w.termAt) < m {
		w.termAt = make([]int, m)
	} else {
		w.termAt = w.termAt[:m]
	}
	if cap(w.agents) < m {
		w.agents = make([]agentRT, m)
	} else {
		w.agents = w.agents[:m]
	}
	for i := 0; i < m; i++ {
		if cfg.Starts[i] < 0 || cfg.Starts[i] >= n {
			return fmt.Errorf("%w: agent %d start %d out of range", ErrConfig, i, cfg.Starts[i])
		}
		if cfg.Orients[i] != ring.CW && cfg.Orients[i] != ring.CCW {
			return fmt.Errorf("%w: agent %d has invalid orientation", ErrConfig, i)
		}
		if cfg.Protocols[i] == nil {
			return fmt.Errorf("%w: agent %d has nil protocol", ErrConfig, i)
		}
		w.agents[i] = agentRT{
			node:     cfg.Starts[i],
			orient:   cfg.Orients[i],
			proto:    cfg.Protocols[i],
			lastSeen: -1,
		}
		w.termAt[i] = -1
		w.visit(cfg.Starts[i])
	}
	w.scratch.grow(m, n)
	return nil
}

func (w *World) visit(node int) {
	if !w.visited[node] {
		w.visited[node] = true
		w.visitedCount++
		if w.visitedCount == w.n && w.exploredAt < 0 {
			w.exploredAt = w.round
		}
	}
}

// Ring returns the footprint topology.
func (w *World) Ring() *ring.Ring { return w.ring }

// Model returns the synchrony/transport regime.
func (w *World) Model() Model { return w.model }

// Round returns the index of the next round to execute (0-based).
func (w *World) Round() int { return w.round }

// NumAgents returns the number of agents.
func (w *World) NumAgents() int { return len(w.agents) }

// AgentIDs returns the ids 0..NumAgents()-1 in order, from storage the World
// owns: the full-activation set an SSYNC adversary's Activate can return
// without allocating. The slice is read-only and valid until the next
// Reset.
func (w *World) AgentIDs() []int { return w.scratch.agentIDs[:len(w.agents):len(w.agents)] }

// AgentNode returns agent i's current node.
func (w *World) AgentNode(i int) int { return w.agents[i].node }

// AgentOnPort reports whether agent i sits on a port and, if so, the global
// direction of that port.
func (w *World) AgentOnPort(i int) (bool, ring.GlobalDir) {
	a := &w.agents[i]
	return a.onPort, a.portDir
}

// AgentTerminated reports whether agent i has entered its terminal state.
func (w *World) AgentTerminated(i int) bool { return w.agents[i].term }

// AgentOrient returns the global direction of agent i's private Right.
func (w *World) AgentOrient(i int) ring.GlobalDir { return w.agents[i].orient }

// AgentMoves returns the number of edge traversals agent i has performed.
func (w *World) AgentMoves(i int) int { return w.agents[i].moves }

// AgentState returns agent i's protocol state label.
func (w *World) AgentState(i int) string { return w.agents[i].proto.State() }

// AgentLastActive returns the round agent i was last activated, or -1.
func (w *World) AgentLastActive(i int) int { return w.agents[i].lastSeen }

// TotalMoves returns the sum of all agents' edge traversals.
func (w *World) TotalMoves() int {
	total := 0
	for i := range w.agents {
		total += w.agents[i].moves
	}
	return total
}

// Visited reports whether node v has been visited.
func (w *World) Visited(v int) bool { return w.visited[w.ring.Node(v)] }

// VisitedCount returns the number of distinct visited nodes.
func (w *World) VisitedCount() int { return w.visitedCount }

// Explored reports whether every node has been visited.
func (w *World) Explored() bool { return w.visitedCount == w.n }

// ExploredRound returns the round in which the last unvisited node was
// reached, or -1.
func (w *World) ExploredRound() int { return w.exploredAt }

// TerminatedRound returns the round agent i terminated in, or -1.
func (w *World) TerminatedRound(i int) int { return w.termAt[i] }

// AllTerminated reports whether every agent has terminated.
func (w *World) AllTerminated() bool { return w.live == 0 }

// AnyTerminated reports whether at least one agent has terminated.
func (w *World) AnyTerminated() bool { return w.live < len(w.agents) }

// LiveAgents returns the number of agents that have not terminated.
func (w *World) LiveAgents() int { return w.live }

// MissingEdgeNow returns the edge missing in the round currently being
// resolved (valid while adversary callbacks and observers run), or NoEdge.
// When a MultiAdversary removed several edges it returns the first; use
// MissingEdgesNow or EdgeMissingNow for the full set.
func (w *World) MissingEdgeNow() int {
	if len(w.scratch.missing) == 0 {
		return NoEdge
	}
	return w.scratch.missing[0]
}

// MissingEdgesNow returns every edge missing in the round currently being
// resolved. The slice is engine-owned scratch: read it during adversary
// callbacks and observers only, and copy it to retain it.
func (w *World) MissingEdgesNow() []int { return w.scratch.missing }

// EdgeMissingNow reports whether edge e is absent in the round currently
// being resolved. Invalid edge indices are simply not missing.
func (w *World) EdgeMissingNow(e int) bool {
	return e >= 0 && e < len(w.scratch.missingBits) && w.scratch.missingBits[e]
}

// edge is Ring.Edge for a node already in [0, n): the step leaves the
// range only at node 0, so a compare replaces Ring.Node's modulo.
func (w *World) edge(v int, d ring.GlobalDir) int {
	if d == ring.CW {
		return v
	}
	if v == 0 {
		return w.n - 1
	}
	return v - 1
}

// neighbor is Ring.Neighbor for a node already in [0, n), wrapping by
// compare like edge.
func (w *World) neighbor(v int, d ring.GlobalDir) int {
	v += int(d)
	switch {
	case v < 0:
		return v + w.n
	case v >= w.n:
		return v - w.n
	}
	return v
}

// toGlobal maps agent i's private direction to a global one.
func (w *World) toGlobal(i int, d agent.Dir) ring.GlobalDir {
	if d == agent.Right {
		return w.agents[i].orient
	}
	return w.agents[i].orient.Opposite()
}

// toLocal maps a global direction to agent i's private one.
func (w *World) toLocal(i int, g ring.GlobalDir) agent.Dir {
	if g == w.agents[i].orient {
		return agent.Right
	}
	return agent.Left
}

// portHolder returns the id of the agent occupying the given port, or -1.
func (w *World) portHolder(node int, dir ring.GlobalDir) int {
	for id := range w.agents {
		a := &w.agents[id]
		if a.onPort && a.node == node && a.portDir == dir {
			return id
		}
	}
	return -1
}

// fillView resets v in place and fills it with agent i's Look snapshot of
// the current configuration. Step feeds it the World's look, Peek its peek.
func (w *World) fillView(i int, v *agent.View) {
	a := &w.agents[i]
	v.Reset()
	v.AtLandmark = w.ring.IsLandmark(a.node)
	v.Moved = a.moved
	v.Failed = a.failed
	if a.onPort {
		v.OnPort = true
		v.PortDir = w.toLocal(i, a.portDir)
	}
	for id := range w.agents {
		b := &w.agents[id]
		if id == i || b.node != a.node {
			continue
		}
		if !b.onPort {
			v.OthersInNode++
			continue
		}
		if w.toLocal(i, b.portDir) == agent.Left {
			v.OthersOnLeftPort++
		} else {
			v.OthersOnRightPort++
		}
	}
}

// Peek returns the decision agent i would take if activated right now, by
// running a clone of its protocol on the current snapshot. The world and the
// agent are left untouched.
func (w *World) Peek(i int) (agent.Decision, error) {
	if w.agents[i].term {
		return agent.Decision{Terminate: true}, nil
	}
	clone := w.agents[i].proto.Clone()
	w.fillView(i, &w.peek)
	d, err := clone.Step(&w.peek)
	if err != nil {
		return agent.Decision{}, fmt.Errorf("%w: peek agent %d: %v", ErrProtocolFault, i, err)
	}
	return d, nil
}

// PeekGlobal is Peek resolved to a global intent.
func (w *World) PeekGlobal(i int) (Intent, error) {
	d, err := w.Peek(i)
	if err != nil {
		return Intent{}, err
	}
	return w.intentOf(i, d), nil
}

func (w *World) intentOf(i int, d agent.Decision) Intent {
	in := Intent{Agent: i, From: w.agents[i].node, TargetEdge: NoEdge, Terminate: d.Terminate}
	if !d.Terminate && d.Dir != agent.NoDir {
		in.Move = true
		in.Dir = w.toGlobal(i, d.Dir)
		in.TargetEdge = w.edge(in.From, in.Dir)
	}
	return in
}

// Fingerprint summarizes the full configuration when every protocol (and the
// adversary, if stateful) supports fingerprints; ok is false otherwise.
func (w *World) Fingerprint() (sig string, ok bool) {
	var b strings.Builder
	for id := range w.agents {
		a := &w.agents[id]
		fp, good := a.proto.(Fingerprinter)
		if !good {
			return "", false
		}
		fmt.Fprintf(&b, "a%d:%d,%t,%d,%t,%t,%t|%s;", id, a.node, a.onPort, int(a.portDir), a.term, a.moved, a.failed, fp.Fingerprint())
	}
	if w.adv != nil {
		fp, good := w.adv.(Fingerprinter)
		if !good {
			return "", false
		}
		b.WriteString("adv:" + fp.Fingerprint())
	}
	return b.String(), true
}

// snapshotAll captures the post-round public state for observers.
func (w *World) snapshotAll() []AgentSnapshot {
	out := make([]AgentSnapshot, len(w.agents))
	for i := range w.agents {
		a := &w.agents[i]
		out[i] = AgentSnapshot{
			Node:       a.node,
			OnPort:     a.onPort,
			PortDir:    a.portDir,
			Terminated: a.term,
			Moved:      a.moved,
			State:      a.proto.State(),
		}
	}
	return out
}
