package adversary_test

import (
	"testing"

	"dynring/internal/adversary"
	"dynring/internal/agent"
	"dynring/internal/ring"
	"dynring/internal/sim"
)

// walker is a minimal protocol that always moves in one private direction.
type walker struct {
	dir agent.Dir
}

func (w *walker) Step(*agent.View) (agent.Decision, error) { return agent.Move(w.dir), nil }
func (w *walker) State() string                            { return "walker" }
func (w *walker) Clone() agent.Protocol                    { cp := *w; return &cp }

// Fingerprint implements sim.Fingerprinter (the walker is stateless).
func (w *walker) Fingerprint() string { return "w" }

func world(t *testing.T, n int, model sim.Model, starts []int, orients []ring.GlobalDir,
	protos []agent.Protocol, adv sim.Adversary) *sim.World {
	t.Helper()
	r, err := ring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		Ring:      r,
		Model:     model,
		Starts:    starts,
		Orients:   orients,
		Protocols: protos,
		Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func steps(t *testing.T, w *sim.World, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTargetAgentPins(t *testing.T) {
	w := world(t, 8, sim.FSync, []int{3, 0},
		[]ring.GlobalDir{ring.CW, ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Right}},
		adversary.TargetAgent{Agent: 0})
	steps(t, w, 50)
	if w.AgentMoves(0) != 0 {
		t.Fatalf("pinned agent moved %d times", w.AgentMoves(0))
	}
	if w.AgentMoves(1) == 0 {
		t.Fatal("the other agent should roam freely")
	}
}

func TestPersistentEdgeOnlyBlocksOneEdge(t *testing.T) {
	w := world(t, 6, sim.FSync, []int{0},
		[]ring.GlobalDir{ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}},
		adversary.PersistentEdge{Edge: 3})
	steps(t, w, 20)
	// The walker reaches node 3 after 3 moves and waits there forever.
	if w.AgentNode(0) != 3 {
		t.Fatalf("walker at node %d, want parked at 3", w.AgentNode(0))
	}
	if on, dir := w.AgentOnPort(0); !on || dir != ring.CW {
		t.Fatal("walker should wait on the CW port of node 3")
	}
}

func TestPreventMeetingKeepsAgentsApart(t *testing.T) {
	// Head-on walkers: without intervention they would co-locate.
	w := world(t, 9, sim.FSync, []int{0, 4},
		[]ring.GlobalDir{ring.CW, ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Left}},
		adversary.PreventMeeting{})
	for i := 0; i < 300; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
		if w.AgentNode(0) == w.AgentNode(1) {
			t.Fatalf("agents co-located at round %d", i)
		}
	}
}

func TestFrontierGuardBlocksHighestID(t *testing.T) {
	// Both agents head clockwise into unvisited territory; the guard must
	// block agent 1 and let agent 0 advance.
	w := world(t, 10, sim.FSync, []int{0, 5},
		[]ring.GlobalDir{ring.CW, ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Right}},
		adversary.FrontierGuard{})
	steps(t, w, 1)
	if w.AgentMoves(0) != 1 || w.AgentMoves(1) != 0 {
		t.Fatalf("moves = %d,%d; want agent 0 through, agent 1 blocked",
			w.AgentMoves(0), w.AgentMoves(1))
	}
}

func TestGreedyBlockerStallsLoneExplorer(t *testing.T) {
	w := world(t, 6, sim.FSync, []int{0},
		[]ring.GlobalDir{ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}},
		adversary.GreedyBlocker{})
	steps(t, w, 40)
	if w.VisitedCount() != 1 {
		t.Fatalf("visited %d nodes; a single frontier pusher must be stalled forever", w.VisitedCount())
	}
}

func TestNSStarvationFreezesEverything(t *testing.T) {
	protos := []agent.Protocol{
		&walker{dir: agent.Right}, &walker{dir: agent.Left}, &walker{dir: agent.Right},
	}
	w := world(t, 9, sim.SSyncNS, []int{0, 3, 6},
		[]ring.GlobalDir{ring.CW, ring.CW, ring.CCW},
		protos, adversary.NewNSStarvation())
	last := map[int]int{0: -1, 1: -1, 2: -1}
	for i := 0; i < 300; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 3; id++ {
			if w.AgentLastActive(id) > last[id] {
				last[id] = w.AgentLastActive(id)
			}
		}
	}
	if w.TotalMoves() != 0 {
		t.Fatalf("starvation failed: %d moves", w.TotalMoves())
	}
	// Fairness: every agent must have been activated recently.
	for id, seen := range last {
		if seen < 290 {
			t.Fatalf("agent %d starved of activations (last active %d)", id, seen)
		}
	}
}

func TestFigure2Schedule(t *testing.T) {
	fig := adversary.Figure2{N: 10}
	if got := fig.Starts(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("starts = %v", got)
	}
	if e := fig.MissingEdge(0, nil, nil); e != 0 {
		t.Fatalf("round 0 edge = %d, want 0", e)
	}
	if e := fig.MissingEdge(6, nil, nil); e != 0 {
		t.Fatalf("round n-4 edge = %d, want 0", e)
	}
	if e := fig.MissingEdge(7, nil, nil); e != 8 {
		t.Fatalf("round n-3 edge = %d, want n-2 = 8", e)
	}
}

func TestRecordingAndReplay(t *testing.T) {
	log := &adversary.BlockLog{}
	rec := &adversary.Recording{Inner: adversary.TargetAgent{Agent: 0}, Log: log}
	w := world(t, 8, sim.FSync, []int{0, 4},
		[]ring.GlobalDir{ring.CW, ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Right}}, rec)
	steps(t, w, 5)
	if len(log.Blocked) != 5 {
		t.Fatalf("recorded %d rounds", len(log.Blocked))
	}
	for i, id := range log.Blocked {
		if id != 0 {
			t.Fatalf("round %d blocked agent %d, want 0", i, id)
		}
	}
	// Replay on a larger ring blocks agent 0's current edge each round.
	rep := &adversary.Replay{Log: log}
	w2 := world(t, 20, sim.FSync, []int{0, 10},
		[]ring.GlobalDir{ring.CW, ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Right}}, rep)
	steps(t, w2, 5)
	if w2.AgentMoves(0) != 0 || w2.AgentMoves(1) != 5 {
		t.Fatalf("replay moves = %d,%d; want 0,5", w2.AgentMoves(0), w2.AgentMoves(1))
	}
	// Beyond the log, nothing is removed.
	steps(t, w2, 3)
	if w2.AgentMoves(0) != 3 {
		t.Fatalf("after the log ends agent 0 should roam; moves=%d", w2.AgentMoves(0))
	}
}

func TestBoundedBlockingEnforcesRecurrence(t *testing.T) {
	const delta = 3
	bb := adversary.NewBoundedBlocking(adversary.PersistentEdge{Edge: 2}, delta)
	w := world(t, 6, sim.FSync, []int{0},
		[]ring.GlobalDir{ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}}, bb)
	// Edge 2 may be missing at most 3 consecutive rounds, so the walker
	// (reaching node 2 after 2 rounds) waits at most 3 more rounds there.
	steps(t, w, 2+delta+1)
	if w.AgentNode(0) <= 2 {
		t.Fatalf("walker stuck at node %d; recurrence not enforced", w.AgentNode(0))
	}
}

func TestRandomActivationNeverEmpty(t *testing.T) {
	adv := adversary.NewRandomActivation(0.01, 99, nil)
	w := world(t, 6, sim.SSyncNS, []int{0, 3},
		[]ring.GlobalDir{ring.CW, ring.CW},
		[]agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Right}}, adv)
	// With p = 0.01 most draws are empty; the fallback must still pick one
	// agent every round (otherwise Step errors).
	steps(t, w, 200)
	if w.TotalMoves() == 0 {
		t.Fatal("nobody ever moved")
	}
}

func TestAlternationConfinesOpposedWalkers(t *testing.T) {
	adv := adversary.NewAlternation(5)
	r, err := ring.New(10)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		Ring:   r,
		Model:  sim.SSyncPT,
		Starts: []int{2, 3},
		// Opposite orientations: each walker's "right" points away from
		// the other.
		Orients:       []ring.GlobalDir{ring.CCW, ring.CW},
		Protocols:     []agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Right}},
		Adversary:     adv,
		FairnessBound: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	steps(t, w, 2000)
	if w.VisitedCount() > 4 {
		t.Fatalf("agents escaped the alternation windows: %d nodes visited", w.VisitedCount())
	}
}

func TestSegmentConfineHoldsBoundary(t *testing.T) {
	adv := adversary.NewSegmentConfine(0, 4)
	r, err := ring.New(8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		Ring:          r,
		Model:         sim.SSyncET,
		Starts:        []int{0, 4},
		Orients:       []ring.GlobalDir{ring.CW, ring.CW},
		Protocols:     []agent.Protocol{&walker{dir: agent.Right}, &walker{dir: agent.Left}},
		Adversary:     adv,
		FairnessBound: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 2; id++ {
			if node := w.AgentNode(id); node > 4 {
				t.Fatalf("agent %d escaped to node %d at round %d", id, node, i)
			}
		}
	}
}
