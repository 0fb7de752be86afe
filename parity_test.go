package dynring_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynring"
)

// updateParity regenerates the engine-parity golden file. Run it only when a
// change is *supposed* to alter engine behaviour (which also requires bumping
// the scenario fingerprint version so stale caches cannot serve results
// computed under the old rules):
//
//	go test -run TestEngineParityGolden -update-parity .
var updateParity = flag.Bool("update-parity", false, "rewrite testdata/engine_parity.json")

// parityEntry is one scenario of the golden file: its grid name, its content
// fingerprint, and the exact Result the engine produced for it.
type parityEntry struct {
	Name        string         `json:"name"`
	Fingerprint string         `json:"fingerprint"`
	Result      dynring.Result `json:"result"`
}

// parityScenarios is the corpus the golden file locks down: the full
// 200-scenario acceptance grid (4 algorithms × 5 sizes × 10 seeds, spanning
// FSYNC, SSYNC/PT and SSYNC/ET), a handful of hand-picked scenarios
// covering the proof adversaries, SSYNC/NS, and cycle detection, and — since
// the dynamics-model zoo — the 315-scenario zoo grid (T-interval, capped
// removal, recurrence, landmark-free exploration). The zoo entries are
// appended after the pre-zoo corpus so the golden file's prefix stays
// byte-comparable across the zoo's introduction.
func parityScenarios(t testing.TB) []dynring.Scenario {
	scs, err := acceptanceSweep(0).Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	extras := []dynring.Scenario{
		{
			Name: "extra/greedy-landmark", Size: 16, Landmark: 0,
			Algorithm: "LandmarkWithChirality", AdversaryLabel: "greedy",
			NewAdversary: dynring.Fixed(dynring.GreedyBlocking()),
		},
		{
			Name: "extra/frontier-pt", Size: 12, Landmark: dynring.NoLandmark,
			Algorithm: "PTBoundWithChirality", AdversaryLabel: "frontier-guard",
			NewAdversary: dynring.Fixed(dynring.FrontierGuarding()),
		},
		{
			Name: "extra/pin-cycle", Size: 8, Landmark: dynring.NoLandmark,
			Algorithm: "KnownNNoChirality", AdversaryLabel: "pin(0)",
			NewAdversary: dynring.Fixed(dynring.PinAgent(0)),
			MaxRounds:    5000, DetectCycles: true,
		},
		{
			Name: "extra/persistent-unconscious", Size: 10, Landmark: dynring.NoLandmark,
			Algorithm: "UnconsciousExploration", AdversaryLabel: "persistent(3)",
			NewAdversary:     dynring.Fixed(dynring.KeepEdgeRemoved(3)),
			StopWhenExplored: true,
		},
		{
			Name: "extra/static-et", Size: 9, Landmark: dynring.NoLandmark,
			Algorithm: "ETBoundNoChirality", Model: dynring.SSyncET,
			AdversaryLabel: "random-act(p=0.7)",
			NewAdversary:   dynring.RandomActivationFactory(0.7, nil),
			Seed:           99,
		},
	}
	out := append(scs, extras...)
	out = append(out, zooScenarios(t)...)
	out = append(out, leapScenarios(t)...)
	return append(out, activationScenarios(t)...)
}

// leapScenarios is the quiescence-leap grid appended to the parity corpus
// after the zoo entries: fingerprint-capable SSYNC algorithms under
// deterministic scheduled adversaries, with budgets long enough that
// blocked-waiting dominates. These are exactly the runs the engine's leap
// fast path rewrites, so pinning their Results (generated identically by
// the slow path — see TestParityLeapGridMatchesSlowPath) locks the
// leap/step equivalence into the golden file.
func leapScenarios(t testing.TB) []dynring.Scenario {
	t.Helper()
	specs := []dynring.AdversarySpec{
		{Kind: "capped", R: 2},
		{Kind: "capped", R: 3},
		{Kind: "frontier"},
		{Kind: "pin", Pin: 0},
		{Kind: "tinterval", T: 3},
	}
	advs := make([]dynring.SweepAdversary, 0, len(specs))
	for _, spec := range specs {
		f, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		advs = append(advs, dynring.SweepAdversary{Name: spec.Label(), New: f})
	}
	sw := dynring.Sweep{
		Base: dynring.Scenario{
			Landmark:  dynring.NoLandmark,
			MaxRounds: 60000,
		},
		Algorithms:  []string{"PTBoundWithChirality", "PTBoundNoChirality", "ETUnconscious"},
		Sizes:       []int{8, 12},
		Seeds:       []int64{1, 2},
		Adversaries: advs,
	}
	scs, err := sw.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		scs[i].Name = "leap/" + scs[i].Name
	}
	return scs
}

// activationScenarios is the random-activation grid appended to the parity
// corpus after the leap entries: the terminating SSYNC algorithms under
// random activation over random edges, in their own model (PT or ET) and
// under NS. Rounds where some agents sleep while an active one terminates
// are common here, and those are the rounds where the engine's passive
// transport (PT) and transport-debt (ET) accounting must still visit every
// sleeper.
func activationScenarios(t testing.TB) []dynring.Scenario {
	t.Helper()
	var advs []dynring.SweepAdversary
	for _, act := range []float64{0.3, 0.6} {
		spec := dynring.AdversarySpec{Kind: "random", P: 0.5, Act: act}
		f, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		advs = append(advs, dynring.SweepAdversary{Name: spec.Label(), New: f})
	}
	var out []dynring.Scenario
	for _, block := range []struct {
		prefix string
		model  dynring.Model
		seeds  int
	}{{"act/", dynring.ModelDefault, 8}, {"act/NS/", dynring.SSyncNS, 2}} {
		sw := dynring.Sweep{
			Base: dynring.Scenario{Landmark: 0, Model: block.model},
			Algorithms: []string{
				"PTBoundWithChirality", "PTLandmarkWithChirality",
				"PTBoundNoChirality", "PTLandmarkNoChirality", "ETBoundNoChirality",
			},
			Sizes:       []int{4, 5, 6, 7},
			Seeds:       []int64{1, 2, 3, 4, 5, 6, 7, 8}[:block.seeds],
			Adversaries: advs,
		}
		scs, err := sw.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		for i := range scs {
			scs[i].Name = block.prefix + scs[i].Name
		}
		out = append(out, scs...)
	}
	return out
}

// runParity executes the corpus and pairs each scenario with its fingerprint
// and Result.
func runParity(t testing.TB) []parityEntry {
	scenarios := parityScenarios(t)
	out := make([]parityEntry, len(scenarios))
	for i, sc := range scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint %s: %v", sc.Name, err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("run %s: %v", sc.Name, err)
		}
		out[i] = parityEntry{Name: sc.Name, Fingerprint: fp, Result: res}
	}
	return out
}

// TestEngineParityGolden is the engine-refactor safety net: every scenario of
// the parity corpus must map its fingerprint to exactly the Result recorded
// in testdata/engine_parity.json. Any engine change that alters a single
// field of a single Result fails this test — which is the cache-correctness
// contract of the ringsimd service (equal fingerprints must imply identical
// Results across engine versions, or the fingerprint version must be bumped).
func TestEngineParityGolden(t *testing.T) {
	path := filepath.Join("testdata", "engine_parity.json")
	got := runParity(t)

	if *updateParity {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-parity): %v", err)
	}
	var want []parityEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d entries, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Fingerprint != want[i].Fingerprint {
			t.Errorf("%s: fingerprint drifted: %s, golden %s (bump fingerprintVersion if intended)",
				want[i].Name, got[i].Fingerprint, want[i].Fingerprint)
			continue
		}
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Errorf("%s: Result drifted from golden:\n got  %+v\n want %+v",
				want[i].Name, got[i].Result, want[i].Result)
		}
	}
}

// TestParityLeapGridMatchesSlowPath re-runs the leap grid of the parity
// corpus with quiescence leaping disabled and checks the slow-path Results
// against the golden file (which the leap-enabled default path produced).
// Together with TestEngineParityGolden this pins leap ≡ step for every
// golden leap entry: the golden must simultaneously match both paths.
func TestParityLeapGridMatchesSlowPath(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "engine_parity.json"))
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-parity): %v", err)
	}
	var want []parityEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]parityEntry, len(want))
	for _, e := range want {
		golden[e.Name] = e
	}
	checked := 0
	for _, sc := range leapScenarios(t) {
		e, ok := golden[sc.Name]
		if !ok {
			t.Fatalf("%s missing from golden (regenerate with -update-parity)", sc.Name)
		}
		sc.DisableLeap = true
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: slow run: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(res, e.Result) {
			t.Errorf("%s: slow path diverged from golden:\n slow   %+v\n golden %+v",
				sc.Name, res, e.Result)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("leap grid is empty")
	}
}
