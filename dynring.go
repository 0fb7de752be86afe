// Package dynring is a laboratory for live (distributed, on-line)
// exploration of dynamic rings, reproducing "Live Exploration of Dynamic
// Rings" (Di Luna, Dobrev, Flocchini, Santoro; ICDCS 2016).
//
// It simulates teams of anonymous mobile agents on a 1-interval-connected
// ring — a ring from which an adversary may remove one edge per round —
// under the paper's Look–Compute–Move semantics, and ships every algorithm
// the paper presents, every adversary its impossibility proofs construct,
// and a harness that regenerates its feasibility and complexity results.
//
// Beyond the paper it carries a dynamics-model zoo drawn from the related
// work: T-interval-connected schedules (TIntervalConnected), capped
// multi-edge removal (CappedRemoval, via the MultiEdgeAdversary extension),
// δ-recurrent blocking (RecurrentBlocking), and a landmark-free exploration
// algorithm after Das–Bose–Sau 2021 (registry name "LandmarkFreeExactN").
// See docs/ARCHITECTURE.md for the paper-to-code map.
//
// Quick start:
//
//	res, err := dynring.Scenario{
//		Size:           12,
//		Landmark:       0,
//		Algorithm:      "LandmarkWithChirality",
//		AdversaryLabel: "random(p=0.5)",
//		NewAdversary:   dynring.RandomEdgesFactory(0.5),
//		Seed:           42,
//	}.Run()
//
// A Sweep expands a base Scenario along algorithm, size, seed and
// adversary axes and runs the grid concurrently. See Algorithms for the
// registry and the examples directory for complete programs.
package dynring

import (
	"errors"

	"dynring/internal/adversary"
	"dynring/internal/agent"
	"dynring/internal/core"
	"dynring/internal/ring"
	"dynring/internal/sim"
	"dynring/internal/trace"
)

// Re-exported model types. The engine lives in internal packages; these
// aliases form the public surface.
type (
	// Model selects the synchrony/transport regime (FSync, SSyncNS,
	// SSyncPT, SSyncET).
	Model = sim.Model
	// Adversary controls the activation schedule and the missing edge.
	Adversary = sim.Adversary
	// MultiEdgeAdversary is the optional Adversary extension for the
	// capped-removal dynamics: implement it to remove several edges per
	// round (the engine then consults MissingEdges instead of MissingEdge).
	MultiEdgeAdversary = sim.MultiAdversary
	// ScheduledAdversary is the optional Adversary extension behind the
	// engine's quiescence-leaping fast path: a deterministic adversary
	// announces via NextChange the next round its behaviour may change, so
	// the engine can skip proven no-progress rounds in O(1). All built-in
	// deterministic strategies implement it. See the sim package contract
	// for the purity window an implementation must respect.
	ScheduledAdversary = sim.ScheduledAdversary
	// Intent is an active agent's resolved decision, shown to adversaries.
	Intent = sim.Intent
	// World is the live simulation state passed to adversaries.
	World = sim.World
	// Result summarizes a finished run.
	Result = sim.Result
	// Outcome classifies how a run ended.
	Outcome = sim.Outcome
	// Observer receives one record per completed round.
	Observer = sim.Observer
	// RoundRecord describes one completed round.
	RoundRecord = sim.RoundRecord
	// AgentSnapshot is an agent's public state after a round.
	AgentSnapshot = sim.AgentSnapshot
	// Protocol is the behaviour an agent executes; implement it to plug in
	// custom algorithms.
	Protocol = agent.Protocol
	// View is an agent's Look snapshot.
	View = agent.View
	// Decision is an agent's per-round decision.
	Decision = agent.Decision
	// Dir is an agent-relative direction.
	Dir = agent.Dir
	// GlobalDir is a global direction (CW or CCW), used for orientations.
	GlobalDir = ring.GlobalDir
	// TraceRecorder collects rounds and renders ASCII space–time diagrams.
	TraceRecorder = trace.Recorder
	// TraceOptions tune diagram rendering.
	TraceOptions = trace.RenderOptions
	// Algorithm describes a registered protocol: assumptions, guarantees
	// and complexity, as claimed by the paper.
	Algorithm = core.Spec
)

// Synchrony and transport models. ModelDefault is the explicit "use the
// algorithm's default regime" sentinel — it is the zero value of Model, so
// a Scenario that leaves Model unset selects the first entry of
// the algorithm's spec.
const (
	ModelDefault = sim.ModelDefault
	FSync        = sim.FSync
	SSyncNS      = sim.SSyncNS
	SSyncPT      = sim.SSyncPT
	SSyncET      = sim.SSyncET
)

// Orientation constants: an agent's private right maps to CW or CCW.
const (
	CW  = ring.CW
	CCW = ring.CCW
)

// Sentinels.
const (
	// NoLandmark marks an anonymous ring.
	NoLandmark = ring.NoLandmark
	// NoEdge is an adversary's "remove nothing" answer.
	NoEdge = sim.NoEdge
	// NeverChanges is a ScheduledAdversary's NextChange answer for
	// strategies that are pure functions of the configuration.
	NeverChanges = sim.NeverChanges
)

// Run outcomes.
const (
	OutcomeAllTerminated = sim.OutcomeAllTerminated
	OutcomeHorizon       = sim.OutcomeHorizon
	OutcomeExplored      = sim.OutcomeExplored
	OutcomeCycle         = sim.OutcomeCycle
)

// Errors returned by Scenario.Validate, and by every path that runs a
// scenario (Scenario.Run, Scenario.NewWorld, Runner, Sweep), wrapped with
// the offending detail.
var (
	ErrUnknownAlgorithm = errors.New("dynring: unknown algorithm")
	ErrRequirement      = errors.New("dynring: configuration violates the algorithm's assumptions")
)

// DefaultBudget returns a generous round budget for the algorithm's claimed
// complexity on a ring of size n.
func DefaultBudget(spec Algorithm, n int) int {
	switch spec.Name {
	case "KnownNNoChirality":
		return 3*n + 16
	case "StartFromLandmarkNoChirality", "LandmarkNoChirality":
		return 8000*n + 8000
	case "PTBoundWithChirality", "PTLandmarkWithChirality",
		"PTBoundNoChirality", "PTLandmarkNoChirality", "ETBoundNoChirality":
		return 900*n*n + 9000
	case "LandmarkFreeExactN":
		return 200*n*n + 8000
	default:
		return 200*n + 4000
	}
}

// Algorithms returns the registry of the paper's protocols, sorted by name.
func Algorithms() []Algorithm { return core.All() }

// LookupAlgorithm returns the spec registered under name.
func LookupAlgorithm(name string) (Algorithm, bool) { return core.Lookup(name) }

// NewTrace returns a recorder for a ring of n nodes; pass it as
// Scenario.Observer and render with its Render method.
func NewTrace(n int) *TraceRecorder { return trace.NewRecorder(n) }

// Built-in adversaries. Custom strategies implement the Adversary
// interface directly.

// NoAdversary keeps the ring static and everyone active.
func NoAdversary() Adversary { return adversary.None{} }

// RandomEdges removes a uniformly random edge with probability p each round.
func RandomEdges(p float64, seed int64) Adversary { return adversary.NewRandomEdge(p, seed) }

// RandomActivation activates each agent independently with probability p
// (never yielding an empty set) and delegates edge removal to edges (nil:
// never remove). Only meaningful for the SSYNC models.
func RandomActivation(p float64, seed int64, edges Adversary) Adversary {
	return adversary.NewRandomActivation(p, seed, edges)
}

// KeepEdgeRemoved removes the same edge in every round.
func KeepEdgeRemoved(edge int) Adversary { return adversary.PersistentEdge{Edge: edge} }

// PinAgent always removes the edge the given agent is about to traverse
// (Observation 1's strategy).
func PinAgent(id int) Adversary { return adversary.TargetAgent{Agent: id} }

// GreedyBlocking always removes an edge whose traversal would reach an
// unvisited node — a strong heuristic worst case.
func GreedyBlocking() Adversary { return adversary.GreedyBlocker{} }

// FrontierGuarding blocks the highest-id agent about to reach an unvisited
// node: the strategy behind the paper's Ω(N·n) move lower bound
// (Figures 15/16).
func FrontierGuarding() Adversary { return adversary.FrontierGuard{} }

// PreventMeetings removes an edge only when two agents would otherwise end
// a round on the same node (Observation 2's strategy).
func PreventMeetings() Adversary { return adversary.PreventMeeting{} }

// The dynamics-model zoo: parameter-bearing adversary families beyond the
// paper's 1-interval-connected strategies. Each has a canonical spec label
// (see AdversarySpec and ParseAdversary), so zoo scenarios are sweepable,
// fingerprintable and remotely submittable like the built-ins.

// TIntervalConnected returns the tinterval(T=t) zoo adversary: a seeded
// schedule that re-draws its single missing edge only at aligned phase
// boundaries, holding each choice for t consecutive rounds. Within every
// aligned window of t rounds the surviving spanning path is stable —
// phase-aligned T-interval connectivity (Kuhn–Lynch–Oshman), the synchrony
// axis of Mandal–Molla–Moses 2020. t = 1 degenerates to an always-removing
// random single-edge adversary.
func TIntervalConnected(t int, seed int64) Adversary { return adversary.NewTInterval(t, seed) }

// CappedRemoval returns the capped(r=k) zoo adversary: up to r missing
// edges per round (the multi-edge generalization of GreedyBlocking; r = 1
// is exactly GreedyBlocking). With r ≥ 2 the ring may temporarily
// disconnect — the relaxation of 1-interval connectivity the capped model
// is about.
func CappedRemoval(r int) Adversary { return adversary.CappedRemoval{R: r} }

// RecurrentBlocking returns the recurrent(w=k) zoo adversary: greedy
// blocking constrained so no edge stays missing for more than w consecutive
// rounds — every edge reappears at least once in any window of w+1 rounds
// (δ-recurrent dynamics, δ = w). The instance is stateful; use
// RecurrentFactory in scenarios so replays rebuild it fresh.
func RecurrentBlocking(w int) Adversary { return adversary.NewRecurrent(w) }
