package dynring_test

import (
	"fmt"

	"dynring"
)

// ExampleScenario_Run explores a static 9-node ring with the 3N−6 algorithm
// of Theorem 3: both agents terminate at exactly round 3·9−6 = 21.
func ExampleScenario_Run() {
	res, err := dynring.Scenario{
		Size:      9,
		Landmark:  dynring.NoLandmark,
		Algorithm: "KnownNNoChirality",
	}.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("explored:", res.Explored)
	fmt.Println("terminated at:", res.TerminatedAt)
	// Output:
	// explored: true
	// terminated at: [21 21]
}

// ExampleScenario_Run_adversary runs the same algorithm against the greedy
// blocking adversary from the built-in suite; the guarantee is
// schedule-independent.
func ExampleScenario_Run_adversary() {
	res, err := dynring.Scenario{
		Size:           9,
		Landmark:       dynring.NoLandmark,
		Algorithm:      "KnownNNoChirality",
		AdversaryLabel: "greedy",
		NewAdversary:   dynring.Fixed(dynring.GreedyBlocking()),
	}.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("explored:", res.Explored)
	fmt.Println("terminated at:", res.TerminatedAt)
	// Output:
	// explored: true
	// terminated at: [21 21]
}

// ExampleScenario_NewWorld drives rounds manually instead of using Run.
func ExampleScenario_NewWorld() {
	w, err := dynring.Scenario{
		Size:      6,
		Landmark:  dynring.NoLandmark,
		Algorithm: "UnconsciousExploration",
	}.NewWorld()
	if err != nil {
		fmt.Println(err)
		return
	}
	for !w.Explored() {
		if err := w.Step(); err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Println("explored after round:", w.Round()-1)
	// Output:
	// explored after round: 1
}

// ExampleLookupAlgorithm inspects the registry.
func ExampleLookupAlgorithm() {
	spec, ok := dynring.LookupAlgorithm("PTBoundWithChirality")
	if !ok {
		fmt.Println("not found")
		return
	}
	fmt.Println(spec.Paper)
	fmt.Println("agents:", spec.Agents, "termination:", spec.Termination)
	// Output:
	// Figure 14, Theorem 12
	// agents: 2 termination: partial
}

// ExampleParseAdversary parses a parameter-bearing dynamics label from the
// model zoo — the grammar cmd/ringsim's -adversaries axis and the ringsimd
// wire specs share.
func ExampleParseAdversary() {
	spec, err := dynring.ParseAdversary("act(0.7)+capped(r=2)")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(spec.Kind, spec.R, spec.Act)
	fmt.Println(spec.Label())
	// Output:
	// capped 2 0.7
	// act(0.7)+capped(r=2)
}

// ExampleScenario_landmarkFree explores an anonymous ring — no landmark —
// with the Das–Bose–Sau landmark-free algorithm under a T-interval-connected
// schedule from the dynamics-model zoo.
func ExampleScenario_landmarkFree() {
	sc := dynring.Scenario{
		Size:           9,
		Landmark:       dynring.NoLandmark,
		Algorithm:      "LandmarkFreeExactN",
		AdversaryLabel: "tinterval(T=2)",
		NewAdversary:   dynring.TIntervalFactory(2),
		Seed:           1,
	}
	res, err := sc.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("explored:", res.Explored)
	fmt.Println("terminated agents:", res.Terminated)
	// Output:
	// explored: true
	// terminated agents: 3
}
