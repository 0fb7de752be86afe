package sim

import (
	"reflect"
	"testing"

	"dynring/internal/agent"
	"dynring/internal/ring"
)

// stepCounter wraps a protocol and counts activations, so tests can tell
// how many rounds the engine actually executed (leapt rounds step nobody).
type stepCounter struct {
	inner agent.Protocol
	n     *int
}

func (s *stepCounter) Step(v *agent.View) (agent.Decision, error) {
	*s.n++
	return s.inner.Step(v)
}
func (s *stepCounter) State() string { return s.inner.State() }
func (s *stepCounter) Clone() agent.Protocol {
	return &stepCounter{inner: s.inner.Clone(), n: s.n}
}
func (s *stepCounter) Fingerprint() string {
	return s.inner.(Fingerprinter).Fingerprint()
}

// blockAllScheduled removes every mover's target edge and activates
// everyone: a total blockade, announced as never-changing.
type blockAllScheduled struct{}

func (blockAllScheduled) Activate(_ int, w *World) []int {
	ids := make([]int, w.NumAgents())
	for i := range ids {
		ids[i] = i
	}
	return ids
}
func (blockAllScheduled) MissingEdge(_ int, _ *World, intents []Intent) int {
	for _, in := range intents {
		if in.Move {
			return in.TargetEdge
		}
	}
	return NoEdge
}
func (blockAllScheduled) MissingEdges(_ int, _ *World, intents []Intent, buf []int) []int {
	for _, in := range intents {
		if in.Move {
			buf = append(buf, in.TargetEdge)
		}
	}
	return buf
}
func (blockAllScheduled) NextChange(int) int  { return NeverChanges }
func (blockAllScheduled) Fingerprint() string { return "block-all" }

// phaseBlock blocks everything during even 100-round phases and nothing
// during odd ones, announcing each phase boundary — a TInterval-shaped
// schedule with deterministic content.
type phaseBlock struct{ blockAllScheduled }

func (p phaseBlock) MissingEdges(t int, w *World, intents []Intent, buf []int) []int {
	if (t/100)%2 == 1 {
		return buf
	}
	return p.blockAllScheduled.MissingEdges(t, w, intents, buf)
}
func (p phaseBlock) MissingEdge(t int, w *World, intents []Intent) int {
	if (t/100)%2 == 1 {
		return NoEdge
	}
	return p.blockAllScheduled.MissingEdge(t, w, intents)
}
func (phaseBlock) NextChange(t int) int { return (t/100 + 1) * 100 }

// leapWorld builds a 2-agent world of counting circlers.
func leapWorld(t testing.TB, model Model, adv Adversary, steps *int) *World {
	t.Helper()
	rg, err := ring.New(16)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() agent.Protocol {
		return &stepCounter{inner: &circler{dir: agent.Right}, n: steps}
	}
	w, err := NewWorld(Config{
		Ring: rg, Model: model,
		Starts:    []int{0, 8},
		Orients:   []ring.GlobalDir{ring.CW, ring.CW},
		Protocols: []agent.Protocol{mk(), mk()},
		Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestLeapSkipsBlockedRounds is the O(1) contract: a total blockade under a
// never-changing schedule must execute a bounded handful of rounds no
// matter the horizon, in every synchrony model.
func TestLeapSkipsBlockedRounds(t *testing.T) {
	for _, model := range []Model{FSync, SSyncNS, SSyncPT, SSyncET} {
		t.Run(model.String(), func(t *testing.T) {
			steps := 0
			w := leapWorld(t, model, blockAllScheduled{}, &steps)
			res, err := Run(w, RunOptions{MaxRounds: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != 1_000_000 || res.Outcome != OutcomeHorizon {
				t.Fatalf("rounds=%d outcome=%v, want full horizon", res.Rounds, res.Outcome)
			}
			if res.TotalMoves != 0 {
				t.Fatalf("blockade leaked %d moves", res.TotalMoves)
			}
			// Fixed-point detection needs the grab round plus two quiescent
			// probe rounds; anything linear in the horizon is a regression.
			if executed := steps / 2; executed > 8 {
				t.Fatalf("executed %d rounds for a fully blocked 1M-round run, want ≤ 8", executed)
			}
		})
	}
}

// TestLeapHonorsNextChange: leaping must never cross a schedule boundary —
// the boundary round itself executes on the slow path, so phase content
// (here: alternating blockade and free movement) is exactly preserved.
func TestLeapHonorsNextChange(t *testing.T) {
	steps := 0
	w := leapWorld(t, FSync, phaseBlock{}, &steps)
	res, err := Run(w, RunOptions{MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	slowSteps := 0
	ws := leapWorld(t, FSync, phaseBlock{}, &slowSteps)
	slow, err := Run(ws, RunOptions{MaxRounds: 1000, DisableLeap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, slow) {
		t.Fatalf("leap diverged from slow path:\n leap %+v\n slow %+v", res, slow)
	}
	// 5 blocked phases of 100 rounds collapse to ~3 executed rounds each;
	// 5 free phases execute in full.
	if executed := steps / 2; executed >= slowSteps/2 || executed > 560 {
		t.Fatalf("executed %d rounds (slow: %d), want a leap-sized reduction", executed, slowSteps/2)
	}
}

// TestLeapForcedSlowPaths: every opt-out forces bit-identical slow
// execution — DisableLeap, an observer, cycle detection, a tie-breaker, a
// non-scheduled adversary, and a protocol without fingerprints.
func TestLeapForcedSlowPaths(t *testing.T) {
	countRounds := func(mut func(cfg *Config, opts *RunOptions)) int {
		steps := 0
		rg, _ := ring.New(16)
		mk := func() agent.Protocol {
			return &stepCounter{inner: &circler{dir: agent.Right}, n: &steps}
		}
		cfg := Config{
			Ring: rg, Model: FSync,
			Starts:    []int{0, 8},
			Orients:   []ring.GlobalDir{ring.CW, ring.CW},
			Protocols: []agent.Protocol{mk(), mk()},
			Adversary: blockAllScheduled{},
		}
		opts := RunOptions{MaxRounds: 500}
		mut(&cfg, &opts)
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(w, opts); err != nil {
			t.Fatal(err)
		}
		return steps / 2
	}

	if fast := countRounds(func(*Config, *RunOptions) {}); fast > 8 {
		t.Fatalf("baseline leap executed %d rounds, want ≤ 8", fast)
	}
	cases := map[string]func(cfg *Config, opts *RunOptions){
		"disable-leap": func(_ *Config, o *RunOptions) { o.DisableLeap = true },
		"observer": func(c *Config, _ *RunOptions) {
			c.Observer = observerFunc(func(RoundRecord) {})
		},
		"tiebreak": func(c *Config, _ *RunOptions) {
			c.TieBreak = tieFunc(func(_ int, _ *World, _ int, _ ring.GlobalDir, contenders []int) int {
				return contenders[0]
			})
		},
		"unscheduled-adversary": func(c *Config, _ *RunOptions) {
			c.Adversary = blockEverything{} // same dynamics, no NextChange
		},
	}
	for name, mut := range cases {
		if got := countRounds(mut); got != 500 {
			t.Errorf("%s: executed %d rounds, want the full 500 slow-path rounds", name, got)
		}
	}

	// Cycle detection certifies the blockade instead of leaping it: the
	// outcome differs by design, so check it separately.
	steps := 0
	w := leapWorld(t, FSync, blockAllScheduled{}, &steps)
	res, err := Run(w, RunOptions{MaxRounds: 500, DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCycle {
		t.Fatalf("DetectCycles outcome = %v, want cycle certificate", res.Outcome)
	}

	// A protocol without Fingerprint support disqualifies the run. The
	// embedded interface hides the counter's Fingerprint method.
	stepsNoFP := 0
	rg, _ := ring.New(16)
	mkBare := func() agent.Protocol {
		return &struct{ agent.Protocol }{&stepCounter{inner: &circler{dir: agent.Right}, n: &stepsNoFP}}
	}
	wNoFP, err := NewWorld(Config{
		Ring: rg, Model: FSync,
		Starts:    []int{0, 8},
		Orients:   []ring.GlobalDir{ring.CW, ring.CW},
		Protocols: []agent.Protocol{mkBare(), mkBare()},
		Adversary: blockAllScheduled{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(wNoFP, RunOptions{MaxRounds: 500}); err != nil {
		t.Fatal(err)
	}
	if stepsNoFP/2 != 500 {
		t.Errorf("fingerprint-less protocols: executed %d rounds, want 500", stepsNoFP/2)
	}
}

// tieFunc adapts a function to TieBreaker.
type tieFunc func(t int, w *World, node int, dir ring.GlobalDir, contenders []int) int

func (f tieFunc) BreakTie(t int, w *World, node int, dir ring.GlobalDir, contenders []int) int {
	return f(t, w, node, dir, contenders)
}

// subsetScheduled activates only agent 0 and blocks its moves: agent 1
// sleeps, so the SSYNC fairness monitor must eventually force it — the leap
// has to stop just short of that round and let it execute.
type subsetScheduled struct{ blockAllScheduled }

func (subsetScheduled) Activate(_ int, _ *World) []int { return []int{0} }

// TestLeapRespectsFairnessForcing: leaping across a sleeping agent's
// starvation deadline would change the activation schedule; the leap must
// be identical to the slow path, forced wake-ups included.
func TestLeapRespectsFairnessForcing(t *testing.T) {
	for _, model := range []Model{SSyncNS, SSyncPT, SSyncET} {
		t.Run(model.String(), func(t *testing.T) {
			run := func(disable bool) (Result, int) {
				steps := 0
				w := leapWorld(t, model, subsetScheduled{}, &steps)
				res, err := Run(w, RunOptions{MaxRounds: 5000, DisableLeap: disable})
				if err != nil {
					t.Fatal(err)
				}
				return res, steps
			}
			fast, fastSteps := run(false)
			slow, slowSteps := run(true)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("leap diverged:\n leap %+v\n slow %+v", fast, slow)
			}
			if fastSteps >= slowSteps {
				t.Fatalf("no leap benefit: %d vs %d protocol steps", fastSteps, slowSteps)
			}
		})
	}
}

// TestLeapLastSeenFixup: after a leap the activation stamps must equal the
// slow path's, or later fairness decisions would diverge.
func TestLeapLastSeenFixup(t *testing.T) {
	steps := 0
	w := leapWorld(t, SSyncPT, blockAllScheduled{}, &steps)
	res, err := Run(w, RunOptions{MaxRounds: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 10_000 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	for i := 0; i < w.NumAgents(); i++ {
		if got := w.AgentLastActive(i); got != 9999 {
			t.Errorf("agent %d lastSeen = %d after leap, want 9999", i, got)
		}
	}
}

// subsetPhase activates only agent 0, blockades every mover until round
// 600, then frees the ring — the adversary shape of the forced-activation
// hazard: agent 1 advances only via fairness forcing, whose cadence a leap
// must reproduce exactly or the post-blockade trajectories diverge.
type subsetPhase struct{ blockAllScheduled }

func (subsetPhase) Activate(_ int, _ *World) []int { return []int{0} }
func (s subsetPhase) MissingEdges(t int, w *World, intents []Intent, buf []int) []int {
	if t >= 600 {
		return buf
	}
	return s.blockAllScheduled.MissingEdges(t, w, intents, buf)
}
func (s subsetPhase) MissingEdge(t int, w *World, intents []Intent) int {
	if t >= 600 {
		return NoEdge
	}
	return s.blockAllScheduled.MissingEdge(t, w, intents)
}
func (subsetPhase) NextChange(t int) int {
	if t < 600 {
		return 600
	}
	return NeverChanges
}

// TestLeapForcedActivationProbe: a probe round whose activation set
// contains a fairness-forced agent must not seed a leap — the forced agent
// would not be re-activated in the skipped rounds, so its forcing cadence
// (and everything downstream of its moves) has to match the slow path
// exactly, including after the schedule change frees the ring.
func TestLeapForcedActivationProbe(t *testing.T) {
	for _, model := range []Model{SSyncNS, SSyncPT, SSyncET} {
		t.Run(model.String(), func(t *testing.T) {
			run := func(disable bool) (Result, []int) {
				rg, _ := ring.New(16)
				steps := 0
				w, err := NewWorld(Config{
					Ring: rg, Model: model,
					Starts:        []int{0, 8},
					Orients:       []ring.GlobalDir{ring.CW, ring.CW},
					Protocols:     []agent.Protocol{&stepCounter{inner: &circler{dir: agent.Right}, n: &steps}, &stepCounter{inner: &circler{dir: agent.Right}, n: &steps}},
					Adversary:     subsetPhase{},
					FairnessBound: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(w, RunOptions{MaxRounds: 700, DisableLeap: disable})
				if err != nil {
					t.Fatal(err)
				}
				seen := []int{w.AgentLastActive(0), w.AgentLastActive(1)}
				return res, seen
			}
			fast, fastSeen := run(false)
			slow, slowSeen := run(true)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("leap diverged across the forced-activation cadence:\n leap %+v\n slow %+v", fast, slow)
			}
			if !reflect.DeepEqual(fastSeen, slowSeen) {
				t.Fatalf("lastSeen diverged: leap %v, slow %v", fastSeen, slowSeen)
			}
		})
	}
}
