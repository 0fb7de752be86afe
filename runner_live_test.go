package dynring

import (
	"context"
	"testing"
)

// TestRunnerReuseKeepsLiveCount: the engine keeps a count of live agents
// instead of scanning for terminations. A Runner Resets one World for every
// run, so after each run of a sequence that mixes agent counts (2 and 3)
// and endings (every agent terminated, some terminated, none) the count
// must equal a scan of the agents' terminal states.
func TestRunnerReuseKeepsLiveCount(t *testing.T) {
	act := AdversarySpec{Kind: "random", P: 0.5, Act: 0.6}
	actF, err := act.Factory()
	if err != nil {
		t.Fatal(err)
	}
	pin := AdversarySpec{Kind: "pin"}
	pinF, err := pin.Factory()
	if err != nil {
		t.Fatal(err)
	}
	var scs []Scenario
	for seed := int64(1); seed <= 6; seed++ {
		scs = append(scs,
			Scenario{Size: 6, Landmark: 0, Algorithm: "PTBoundNoChirality",
				AdversaryLabel: act.Label(), NewAdversary: actF, Seed: seed},
			Scenario{Size: 6, Landmark: 0, Algorithm: "KnownNNoChirality", Seed: seed},
			Scenario{Size: 6, Landmark: 0, Algorithm: "ETBoundNoChirality",
				AdversaryLabel: act.Label(), NewAdversary: actF, Seed: seed},
			Scenario{Size: 6, Landmark: 0, Algorithm: "UnconsciousExploration",
				MaxRounds: 50, Seed: seed},
			// Pinned, one of the three agents terminates and the other two
			// wait out the budget.
			Scenario{Size: 8, Landmark: NoLandmark, Algorithm: "PTBoundNoChirality",
				AdversaryLabel: pin.Label(), NewAdversary: pinF, MaxRounds: 60000, Seed: seed},
		)
	}
	r := NewRunner()
	endings := map[string]bool{}
	for _, sc := range scs {
		res, err := r.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s seed %d: %v", sc.Algorithm, sc.Seed, err)
		}
		w := &r.world
		live := 0
		for i := 0; i < w.NumAgents(); i++ {
			if !w.AgentTerminated(i) {
				live++
			}
		}
		if got := w.LiveAgents(); got != live || got != w.NumAgents()-res.Terminated {
			t.Fatalf("%s seed %d: live count %d, scan %d, %d agents with %d terminated",
				sc.Algorithm, sc.Seed, got, live, w.NumAgents(), res.Terminated)
		}
		switch {
		case live == 0:
			endings["all"] = true
		case live < w.NumAgents():
			endings["some"] = true
		default:
			endings["none"] = true
		}
	}
	if len(endings) != 3 {
		t.Fatalf("sequence covers endings %v, want all, some and none", endings)
	}
}
