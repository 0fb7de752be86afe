package sim

import (
	"testing"

	"dynring/internal/agent"
	"dynring/internal/ring"
)

// circler moves in one private direction forever: the simplest live,
// allocation-free protocol, used to keep worlds stepping in steady state.
type circler struct {
	dir agent.Dir
}

func (c *circler) Step(*agent.View) (agent.Decision, error) { return agent.Move(c.dir), nil }
func (c *circler) State() string                            { return "circling" }
func (c *circler) Clone() agent.Protocol                    { cp := *c; return &cp }
func (c *circler) Fingerprint() string                      { return "circler" }

// frugalAdversary is an allocation-free SSYNC adversary: it reuses one ids
// backing array across Activate calls (the engine's contract allows this)
// and always removes edge 0.
type frugalAdversary struct {
	ids []int
}

func (f *frugalAdversary) Activate(t int, w *World) []int {
	f.ids = f.ids[:0]
	for i := 0; i < w.NumAgents(); i++ {
		// Alternate single activations to exercise the sleeping paths.
		if (t+i)%2 == 0 {
			f.ids = append(f.ids, i)
		}
	}
	if len(f.ids) == 0 {
		f.ids = append(f.ids, 0)
	}
	return f.ids
}

func (f *frugalAdversary) MissingEdge(int, *World, []Intent) int { return 0 }

// blockEverything removes the first mover's target edge each round, keeping
// agents bouncing (port grabs, failures, releases) without any allocation.
type blockEverything struct{}

func (blockEverything) Activate(_ int, w *World) []int { return nil } // unused: FSYNC
func (blockEverything) MissingEdge(_ int, _ *World, intents []Intent) int {
	for _, in := range intents {
		if in.Move {
			return in.TargetEdge
		}
	}
	return NoEdge
}

// allocWorld builds an n-node world with m circling agents.
func allocWorld(t testing.TB, n, m int, model Model, adv Adversary) *World {
	t.Helper()
	rg, err := ring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, m)
	orients := make([]ring.GlobalDir, m)
	protos := make([]agent.Protocol, m)
	for i := 0; i < m; i++ {
		starts[i] = i * n / m
		orients[i] = ring.CW
		if i%2 == 1 {
			orients[i] = ring.CCW
		}
		protos[i] = &circler{dir: agent.Right}
	}
	w, err := NewWorld(Config{
		Ring: rg, Model: model, Starts: starts, Orients: orients,
		Protocols: protos, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStepZeroAllocSteadyState is the engine's performance contract: after
// warm-up, World.Step performs zero heap allocations per round across the
// regimes — FSYNC static, FSYNC with a blocking adversary (contended port
// grabs), and every SSYNC transport model under a frugal adversary. Observer
// and cycle-detection costs are opt-in and excluded by construction.
func TestStepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	cases := []struct {
		name  string
		world func(t testing.TB) *World
	}{
		{"fsync/static", func(t testing.TB) *World {
			return allocWorld(t, 64, 3, FSync, nil)
		}},
		{"fsync/blocking", func(t testing.TB) *World {
			return allocWorld(t, 64, 3, FSync, blockEverything{})
		}},
		{"ssync-ns/frugal", func(t testing.TB) *World {
			return allocWorld(t, 64, 3, SSyncNS, &frugalAdversary{})
		}},
		{"ssync-pt/frugal", func(t testing.TB) *World {
			return allocWorld(t, 64, 3, SSyncPT, &frugalAdversary{})
		}},
		{"ssync-et/frugal", func(t testing.TB) *World {
			return allocWorld(t, 64, 3, SSyncET, &frugalAdversary{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world(t)
			for i := 0; i < 32; i++ { // warm-up: fault any setup-time laziness
				if err := w.Step(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				if err := w.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("World.Step allocates %.2f objects/round in steady state, want 0", avg)
			}
		})
	}
}

// TestResetReusesWorld drives one run on a world, Resets it for a different
// configuration, and checks the replay is indistinguishable from a freshly
// built world: same per-round positions, moves and outcomes. This is the
// correctness contract the batched sweep Runner leans on.
func TestResetReusesWorld(t *testing.T) {
	rg8, err := ring.New(8)
	if err != nil {
		t.Fatal(err)
	}
	rg5, err := ring.NewWithLandmark(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := Config{
		Ring: rg8, Model: SSyncPT,
		Starts:    []int{0, 3, 6},
		Orients:   []ring.GlobalDir{ring.CW, ring.CCW, ring.CW},
		Protocols: []agent.Protocol{&circler{dir: agent.Right}, &circler{dir: agent.Right}, &circler{dir: agent.Left}},
		Adversary: &frugalAdversary{},
	}
	cfgB := func() Config {
		return Config{
			Ring: rg5, Model: FSync,
			Starts:    []int{0, 2},
			Orients:   []ring.GlobalDir{ring.CW, ring.CW},
			Protocols: []agent.Protocol{&circler{dir: agent.Right}, &circler{dir: agent.Right}},
			Adversary: blockEverything{},
		}
	}

	// Dirty the world with run A, then Reset into configuration B.
	reused, err := NewWorld(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := reused.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := reused.Reset(cfgB()); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewWorld(cfgB())
	if err != nil {
		t.Fatal(err)
	}
	if reused.Round() != 0 || reused.VisitedCount() != fresh.VisitedCount() {
		t.Fatalf("Reset left stale state: round=%d visited=%d", reused.Round(), reused.VisitedCount())
	}
	for i := 0; i < 60; i++ {
		if err := reused.Step(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < fresh.NumAgents(); a++ {
			if reused.AgentNode(a) != fresh.AgentNode(a) || reused.AgentMoves(a) != fresh.AgentMoves(a) {
				t.Fatalf("round %d agent %d diverged: node %d/%d moves %d/%d",
					i, a, reused.AgentNode(a), fresh.AgentNode(a), reused.AgentMoves(a), fresh.AgentMoves(a))
			}
			ro, rd := reused.AgentOnPort(a)
			fo, fd := fresh.AgentOnPort(a)
			if ro != fo || (ro && rd != fd) {
				t.Fatalf("round %d agent %d port state diverged", i, a)
			}
		}
		if reused.VisitedCount() != fresh.VisitedCount() {
			t.Fatalf("round %d coverage diverged: %d vs %d", i, reused.VisitedCount(), fresh.VisitedCount())
		}
	}

	// Reset into a config with more agents than ever seen must regrow.
	big := Config{
		Ring: rg8, Model: FSync,
		Starts:    []int{0, 1, 2, 3, 4},
		Orients:   []ring.GlobalDir{ring.CW, ring.CW, ring.CW, ring.CW, ring.CW},
		Protocols: []agent.Protocol{&circler{}, &circler{}, &circler{}, &circler{}, &circler{}},
	}
	for i := range big.Protocols {
		big.Protocols[i] = &circler{dir: agent.Right}
	}
	if err := reused.Reset(big); err != nil {
		t.Fatal(err)
	}
	if reused.NumAgents() != 5 {
		t.Fatalf("NumAgents = %d after regrow, want 5", reused.NumAgents())
	}
	for i := 0; i < 20; i++ {
		if err := reused.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !reused.Explored() {
		t.Fatal("5 circling agents failed to explore 8 nodes in 20 rounds after Reset")
	}
}

// TestPeekAllocs pins Peek to the allocations of its protocol's Clone.
// circler's Clone allocates once; the clone steps on the World's own peek
// snapshot, so Peek and PeekGlobal cost exactly that one allocation. The
// stock Alternation, SegmentConfine and NSStarvation adversaries peek at
// every agent in every round.
func TestPeekAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w := allocWorld(t, 64, 3, SSyncNS, &frugalAdversary{})
	for i := 0; i < 8; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	peek := testing.AllocsPerRun(200, func() {
		if _, err := w.Peek(1); err != nil {
			t.Fatal(err)
		}
	})
	global := testing.AllocsPerRun(200, func() {
		if _, err := w.PeekGlobal(2); err != nil {
			t.Fatal(err)
		}
	})
	if peek != 1 || global != 1 {
		t.Fatalf("Peek allocates %.2f and PeekGlobal %.2f objects per call, want 1 each (the clone)", peek, global)
	}
}
