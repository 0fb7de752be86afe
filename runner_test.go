package dynring_test

import (
	"context"
	"reflect"
	"testing"

	"dynring"
)

// TestRunnerMatchesScenarioRun: executing scenarios back-to-back through one
// Runner — worlds Reset in place, rings served from cache — must be
// indistinguishable from running each through a fresh Scenario.Run. The
// corpus deliberately interleaves algorithms, sizes and adversaries so every
// Reset transitions between genuinely different configurations.
func TestRunnerMatchesScenarioRun(t *testing.T) {
	scenarios := parityScenarios(t)
	// Thin the 200-scenario grid for speed; keep every 7th plus all extras.
	var corpus []dynring.Scenario
	for i, sc := range scenarios {
		if i%7 == 0 || i >= 200 {
			corpus = append(corpus, sc)
		}
	}

	r := dynring.NewRunner()
	ctx := context.Background()
	for _, sc := range corpus {
		fresh, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: fresh run: %v", sc.Name, err)
		}
		batched, err := r.Run(ctx, sc)
		if err != nil {
			t.Fatalf("%s: runner run: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(fresh, batched) {
			t.Fatalf("%s: Runner diverged from Scenario.Run:\nfresh   %+v\nbatched %+v", sc.Name, fresh, batched)
		}
	}
}

// TestZeroRunnerMatchesNewRunner: a zero Runner is ready to use, and runs
// every scenario exactly as NewRunner's does.
func TestZeroRunnerMatchesNewRunner(t *testing.T) {
	scenarios := parityScenarios(t)
	var zero dynring.Runner
	made := dynring.NewRunner()
	ctx := context.Background()
	for i, sc := range scenarios {
		if i%11 != 0 {
			continue
		}
		want, err := made.Run(ctx, sc)
		if err != nil {
			t.Fatalf("%s: NewRunner run: %v", sc.Name, err)
		}
		got, err := zero.Run(ctx, sc)
		if err != nil {
			t.Fatalf("%s: zero Runner run: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: zero Runner diverged from NewRunner:\nzero %+v\nnew  %+v", sc.Name, got, want)
		}
	}
}

// TestRunnerSurvivesErrors: a failed Run (validation error) must leave the
// Runner fully usable for the next scenario.
func TestRunnerSurvivesErrors(t *testing.T) {
	r := dynring.NewRunner()
	ctx := context.Background()

	good := dynring.Scenario{Size: 8, Landmark: 0, Algorithm: "LandmarkWithChirality"}
	want, err := good.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, good); err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Algorithm = "NoSuchAlgorithm"
	if _, err := r.Run(ctx, bad); err == nil {
		t.Fatal("runner accepted an unknown algorithm")
	}
	tiny := good
	tiny.Size = 2 // below ring.MinSize
	if _, err := r.Run(ctx, tiny); err == nil {
		t.Fatal("runner accepted a too-small ring")
	}

	got, err := r.Run(ctx, good)
	if err != nil {
		t.Fatalf("runner unusable after errors: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-error run diverged: %+v vs %+v", got, want)
	}
}

// TestRunnerHonoursCancellation: a cancelled context aborts a run through
// the Runner exactly like through Scenario.RunContext.
func TestRunnerHonoursCancellation(t *testing.T) {
	r := dynring.NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := dynring.Scenario{Size: 64, Landmark: 0, Algorithm: "LandmarkWithChirality"}
	if _, err := r.Run(ctx, sc); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And the runner still works afterwards.
	if _, err := r.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioStepZeroAllocSteadyState is the public-surface twin of the
// engine gate: a registry algorithm stepped through the World built by
// Scenario.NewWorld must allocate nothing per round in steady state (FSYNC,
// no observer, no cycle detection).
func TestScenarioStepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w, err := dynring.Scenario{
		Size:      64,
		Landmark:  dynring.NoLandmark,
		Algorithm: "UnconsciousExploration",
		Model:     dynring.FSync,
	}.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
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
		t.Fatalf("steady-state Step allocates %.2f objects/round, want 0", avg)
	}
}

// TestScenarioStepZeroAllocStockAdversaries extends the zero-allocation
// contract to SSYNC under the stock adversaries: their Activate serves the
// full activation set from the World's storage (World.AgentIDs) and
// RandomActivation reuses its own buffer, so a round under random, greedy
// or act(...)+random allocates nothing.
func TestScenarioStepZeroAllocStockAdversaries(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	for _, spec := range []dynring.AdversarySpec{
		{Kind: "random", P: 0.5},
		{Kind: "greedy"},
		{Kind: "random", P: 0.5, Act: 0.6},
	} {
		t.Run(spec.Label(), func(t *testing.T) {
			factory, err := spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			w, err := dynring.Scenario{
				Size:           16,
				Landmark:       dynring.NoLandmark,
				Algorithm:      "ETUnconscious",
				AdversaryLabel: spec.Label(),
				NewAdversary:   factory,
				Seed:           7,
			}.NewWorld()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
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
				t.Fatalf("SSYNC Step under %s allocates %.2f objects/round, want 0", spec.Label(), avg)
			}
		})
	}
}

// TestRunnerBatchedAllocBound gates the Runner's batched-reuse economics:
// executing the mixed 12-scenario bench batch through one warm Runner must
// stay within a small allocation budget per batch (the measured cost is 96
// allocs — fresh per-run protocols, adversaries and Results; the random
// adversaries' sources are the Runner's own — against ~300 for fresh
// Scenario.RunContext executions). A regression here means world
// or ring reuse silently broke.
func TestRunnerBatchedAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	sw := dynring.Sweep{
		Base: dynring.Scenario{
			Landmark:       0,
			AdversaryLabel: "random(p=0.4)",
			NewAdversary:   dynring.RandomEdgesFactory(0.4),
		},
		Algorithms: []string{"KnownNNoChirality", "LandmarkWithChirality"},
		Sizes:      []int{8, 16, 32},
		Seeds:      []int64{1, 2},
	}
	scs, err := sw.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := dynring.NewRunner()
	for _, sc := range scs { // warm-up: build worlds, rings, scratch
		if _, err := r.Run(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, sc := range scs {
			if _, err := r.Run(ctx, sc); err != nil {
				t.Fatal(err)
			}
		}
	})
	// 96 measured + headroom for toolchain drift; 12 scenarios per batch.
	const maxBatchAllocs = 106
	if avg > maxBatchAllocs {
		t.Fatalf("batched Runner.Run allocates %.1f objects per %d-scenario batch, want ≤ %d",
			avg, len(scs), maxBatchAllocs)
	}
}
