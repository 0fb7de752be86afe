package search

import (
	"testing"

	"dynring/internal/agent"
	"dynring/internal/core"
	"dynring/internal/ring"
)

// walker moves in one direction forever (finite state: fingerprintable).
type walker struct {
	dir agent.Dir
}

func (w *walker) Step(*agent.View) (agent.Decision, error) { return agent.Move(w.dir), nil }
func (w *walker) State() string                            { return "walker" }
func (w *walker) Clone() agent.Protocol                    { cp := *w; return &cp }
func (w *walker) Fingerprint() string                      { return "w" }

// TestSingleAgentPreventable confirms Corollary 1 exactly: for one agent
// there exists a schedule preventing exploration for the whole horizon (the
// search finds the Observation 1 strategy by enumeration).
func TestSingleAgentPreventable(t *testing.T) {
	res, err := MaxCoverTime(Config{
		N: 4, Landmark: ring.NoLandmark,
		Starts:  []int{0},
		Orients: []ring.GlobalDir{ring.CW},
		Factory: func() ([]agent.Protocol, error) {
			return []agent.Protocol{&walker{dir: agent.Right}}, nil
		},
		Horizon: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preventable {
		t.Fatal("a lone walker must be preventable forever (Observation 1)")
	}
}

// TestETUnconsciousExactWorstCase computes the exact adversarial worst-case
// exploration time of the catch-and-bounce protocol (Theorem 18's
// algorithm, run in FSYNC) on small rings. It must not be preventable, and
// the worst case must meet Observation 3's 2n−3 lower bound.
func TestETUnconsciousExactWorstCase(t *testing.T) {
	for _, tc := range []struct {
		n       int
		horizon int
	}{
		{n: 4, horizon: 10},
		{n: 5, horizon: 12},
	} {
		res, err := MaxCoverTime(Config{
			N: tc.n, Landmark: ring.NoLandmark,
			Starts:  []int{0, 1},
			Orients: []ring.GlobalDir{ring.CW, ring.CW},
			Factory: func() ([]agent.Protocol, error) {
				return []agent.Protocol{core.NewETUnconscious(), core.NewETUnconscious()}, nil
			},
			Horizon: tc.horizon,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Preventable {
			t.Fatalf("n=%d: exploration preventable within %d rounds (schedule %v)",
				tc.n, tc.horizon, res.PreventingSchedule)
		}
		lower := 2*tc.n - 3
		if res.WorstCover < lower {
			t.Fatalf("n=%d: exact worst case %d below Observation 3's bound %d (schedule %v)",
				tc.n, res.WorstCover, lower, res.WorstSchedule)
		}
		t.Logf("n=%d: exact adversarial worst case = %d rounds (≥ 2n−3 = %d), schedule %v, %d nodes expanded",
			tc.n, res.WorstCover, lower, res.WorstSchedule, res.Nodes)
	}
}

// TestNoChiralityPreventable: Theorem 18 assumes chirality. The exhaustive
// search confirms the assumption is necessary for this algorithm: with
// opposite orientations it finds a schedule that keeps the ring unexplored
// for the whole horizon (the two agents bounce inside a confined window,
// mirroring the Theorem 10 dynamics).
func TestNoChiralityPreventable(t *testing.T) {
	res, err := MaxCoverTime(Config{
		N: 4, Landmark: ring.NoLandmark,
		Starts:  []int{0, 2},
		Orients: []ring.GlobalDir{ring.CW, ring.CCW},
		Factory: func() ([]agent.Protocol, error) {
			return []agent.Protocol{core.NewETUnconscious(), core.NewETUnconscious()}, nil
		},
		Horizon: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preventable {
		t.Fatal("expected a prevention schedule without chirality")
	}
	t.Logf("prevention schedule found: %v", res.PreventingSchedule)
}

// TestWorstScheduleReplays sanity-checks that the returned worst schedule
// is within the horizon and achieves a positive cover time on a chirality
// configuration.
func TestWorstScheduleReplays(t *testing.T) {
	cfg := Config{
		N: 4, Landmark: ring.NoLandmark,
		Starts:  []int{0, 2},
		Orients: []ring.GlobalDir{ring.CW, ring.CW},
		Factory: func() ([]agent.Protocol, error) {
			return []agent.Protocol{core.NewETUnconscious(), core.NewETUnconscious()}, nil
		},
		Horizon: 10,
	}
	res, err := MaxCoverTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preventable || res.WorstCover < 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if len(res.WorstSchedule) > cfg.Horizon {
		t.Fatalf("schedule longer than horizon: %v", res.WorstSchedule)
	}
}

func TestHorizonValidation(t *testing.T) {
	if _, err := MaxCoverTime(Config{N: 4}); err == nil {
		t.Fatal("zero horizon accepted")
	}
}
