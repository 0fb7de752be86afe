package sim

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"

	"dynring/internal/agent"
	"dynring/internal/ring"
)

// fpWalker is a deterministic protocol with a sound fingerprint: it moves
// in a fixed direction forever.
type fpWalker struct {
	dir agent.Dir
}

func (w *fpWalker) Step(*agent.View) (agent.Decision, error) { return agent.Move(w.dir), nil }
func (w *fpWalker) State() string                            { return "fpWalker" }
func (w *fpWalker) Clone() agent.Protocol                    { cp := *w; return &cp }
func (w *fpWalker) Fingerprint() string                      { return strconv.Itoa(int(w.dir)) }

// blockAll removes whatever edge the single agent wants, forever, and has a
// stationary fingerprint — together with fpWalker this produces a certified
// configuration cycle.
type blockAll struct{}

func (blockAll) Activate(_ int, w *World) []int {
	ids := make([]int, w.NumAgents())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (blockAll) MissingEdge(_ int, _ *World, intents []Intent) int {
	for _, in := range intents {
		if in.Move {
			return in.TargetEdge
		}
	}
	return NoEdge
}

func (blockAll) Fingerprint() string { return "blockAll" }

func TestRunDetectsCycle(t *testing.T) {
	r, err := ring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{
		Ring:      r,
		Model:     FSync,
		Starts:    []int{0},
		Orients:   []ring.GlobalDir{ring.CW},
		Protocols: []agent.Protocol{&fpWalker{dir: agent.Right}},
		Adversary: blockAll{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, RunOptions{MaxRounds: 1000, DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCycle {
		t.Fatalf("outcome = %v, want cycle", res.Outcome)
	}
	if res.Rounds > 10 {
		t.Fatalf("cycle detected only after %d rounds", res.Rounds)
	}
	if res.Explored {
		t.Fatal("nothing should be explored")
	}
}

func TestRunCycleNeedsFingerprints(t *testing.T) {
	r, err := ring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	// scripted (from engine_test) provides no fingerprint: detection must
	// silently stay off and the run hit the horizon.
	w, err := NewWorld(Config{
		Ring:      r,
		Model:     FSync,
		Starts:    []int{0},
		Orients:   []ring.GlobalDir{ring.CW},
		Protocols: []agent.Protocol{&scripted{}},
		Adversary: blockAll{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, RunOptions{MaxRounds: 50, DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeHorizon {
		t.Fatalf("outcome = %v, want horizon", res.Outcome)
	}
}

func TestRunOptionValidation(t *testing.T) {
	r, err := ring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{
		Ring:      r,
		Model:     FSync,
		Starts:    []int{0},
		Orients:   []ring.GlobalDir{ring.CW},
		Protocols: []agent.Protocol{&scripted{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, RunOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	tests := map[Outcome]string{
		OutcomeAllTerminated: "all-terminated",
		OutcomeHorizon:       "horizon",
		OutcomeExplored:      "explored",
		OutcomeCycle:         "cycle",
		Outcome(0):           "invalid",
	}
	for o, want := range tests {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
	models := map[Model]string{
		FSync: "FSYNC", SSyncNS: "SSYNC/NS", SSyncPT: "SSYNC/PT", SSyncET: "SSYNC/ET",
	}
	for m, want := range models {
		if got := m.String(); got != want {
			t.Errorf("Model.String() = %q, want %q", got, want)
		}
	}
	if FSync.SemiSynchronous() || !SSyncPT.SemiSynchronous() {
		t.Error("SemiSynchronous misclassifies")
	}
}

// TestEngineInvariantsQuick drives random configurations (sizes, starts,
// orientations, models, random edge removal and activation) with the
// InvariantObserver attached: the engine must never violate port mutual
// exclusion, single-step movement, edge presence, or termination
// permanence.
func TestEngineInvariantsQuick(t *testing.T) {
	f := func(rawN, s0, s1, s2 uint8, o uint8, modelRaw uint8, seed int64) bool {
		n := 3 + int(rawN)%17
		r, err := ring.New(n)
		if err != nil {
			return false
		}
		models := []Model{FSync, SSyncNS, SSyncPT, SSyncET}
		model := models[int(modelRaw)%len(models)]
		dirs := []agent.Dir{agent.Left, agent.Right}
		protos := []agent.Protocol{
			&fpWalker{dir: dirs[int(o)%2]},
			&fpWalker{dir: dirs[int(o>>1)%2]},
			&fpWalker{dir: dirs[int(o>>2)%2]},
		}
		obs := &InvariantObserver{Ring: r}
		adv := randomHarness{seed: seed}
		w, err := NewWorld(Config{
			Ring:      r,
			Model:     model,
			Starts:    []int{int(s0) % n, int(s1) % n, int(s2) % n},
			Orients:   []ring.GlobalDir{ring.CW, ring.CCW, ring.CW},
			Protocols: protos,
			Adversary: adv,
			Observer:  obs,
		})
		if err != nil {
			return false
		}
		if _, err := Run(w, RunOptions{MaxRounds: 200}); err != nil {
			return false
		}
		if obs.Err != nil {
			t.Logf("invariant violation: %v", obs.Err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomHarness is a deterministic pseudo-random adversary for the
// invariant property test (a tiny LCG; no shared state with package rand).
type randomHarness struct {
	seed int64
}

func (h randomHarness) next(t int, salt int64) int64 {
	x := h.seed*6364136223846793005 + int64(t)*1442695040888963407 + salt
	if x < 0 {
		x = -x
	}
	return x
}

func (h randomHarness) Activate(t int, w *World) []int {
	var ids []int
	for i := 0; i < w.NumAgents(); i++ {
		if w.AgentTerminated(i) {
			continue
		}
		if h.next(t, int64(i)*7919)%4 != 0 {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		for i := 0; i < w.NumAgents(); i++ {
			if !w.AgentTerminated(i) {
				ids = append(ids, i)
				break
			}
		}
	}
	return ids
}

func (h randomHarness) MissingEdge(t int, w *World, _ []Intent) int {
	if h.next(t, 104729)%3 == 0 {
		return NoEdge
	}
	return int(h.next(t, 15485863) % int64(w.Ring().Size()))
}
