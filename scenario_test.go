package dynring_test

import (
	"errors"
	"reflect"
	"testing"

	"dynring"
)

// validationCases enumerates the configuration-validation error paths. Each
// case is expressed once and asserted against both Scenario.Validate and
// Scenario.NewWorld, which must agree.
var validationCases = []struct {
	name string
	sc   dynring.Scenario
	want error
}{
	{
		name: "unknown algorithm",
		sc:   dynring.Scenario{Size: 8, Algorithm: "Nope"},
		want: dynring.ErrUnknownAlgorithm,
	},
	{
		name: "missing landmark",
		sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
			Algorithm: "LandmarkWithChirality"},
		want: dynring.ErrRequirement,
	},
	{
		name: "wrong start count",
		sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
			Algorithm: "KnownNNoChirality", Starts: []int{0, 1, 2}},
		want: dynring.ErrRequirement,
	},
	{
		name: "wrong orientation count",
		sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
			Algorithm: "KnownNNoChirality",
			Orients:   []dynring.GlobalDir{dynring.CW}},
		want: dynring.ErrRequirement,
	},
	{
		name: "chirality violated",
		sc: dynring.Scenario{Size: 8, Landmark: 0,
			Algorithm: "LandmarkWithChirality",
			Orients:   []dynring.GlobalDir{dynring.CW, dynring.CCW}},
		want: dynring.ErrRequirement,
	},
	{
		name: "bound below size",
		sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
			Algorithm: "KnownNNoChirality", UpperBound: 5},
		want: dynring.ErrRequirement,
	},
	{
		name: "wrong exact size",
		sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
			Algorithm: "ETBoundNoChirality", ExactSize: 5,
			Orients: []dynring.GlobalDir{dynring.CW, dynring.CCW, dynring.CW}},
		want: dynring.ErrRequirement,
	},
	{
		name: "valid",
		sc: dynring.Scenario{Size: 8, Landmark: 0,
			Algorithm: "LandmarkWithChirality"},
		want: nil,
	},
}

func TestScenarioValidate(t *testing.T) {
	for _, tt := range validationCases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.sc.Validate()
			if tt.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.want) {
				t.Fatalf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestLegacyNewWorldValidationParity: the world-building path must reject
// exactly what Scenario.Validate rejects — NewWorld validates through the
// same resolve, building the ring and protocols on top. (The name dates from
// the removed NewWorld(Config) wrapper, which this test used to hold to the
// same cases.)
func TestLegacyNewWorldValidationParity(t *testing.T) {
	for _, tt := range validationCases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.sc.NewWorld()
			if tt.want == nil {
				if err != nil {
					t.Fatalf("NewWorld() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.want) {
				t.Fatalf("NewWorld() = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestScenarioValidateCustomProtocols: the NewProtocols escape hatch skips
// registry assumption checks but still validates counts.
func TestScenarioValidateCustomProtocols(t *testing.T) {
	custom := dynring.Scenario{
		Size: 8, Landmark: dynring.NoLandmark,
		NewProtocols: func() ([]dynring.Protocol, error) {
			return []dynring.Protocol{}, nil
		},
	}
	if err := custom.Validate(); !errors.Is(err, dynring.ErrRequirement) {
		t.Fatalf("empty NewProtocols: Validate() = %v, want ErrRequirement", err)
	}
	noAlgo := dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark}
	if err := noAlgo.Validate(); !errors.Is(err, dynring.ErrUnknownAlgorithm) {
		t.Fatalf("no algorithm: Validate() = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestScenarioReplayable: a scenario with a seeded adversary factory is a
// value — running it twice gives identical results, because every run
// rebuilds the adversary from the same seed.
func TestScenarioReplayable(t *testing.T) {
	sc := dynring.Scenario{
		Size: 10, Landmark: dynring.NoLandmark,
		Algorithm:    "KnownNNoChirality",
		NewAdversary: dynring.RandomEdgesFactory(0.5),
		Seed:         99,
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}

// TestModelDefault: the explicit sentinel is the zero value and resolves to
// the algorithm's first declared regime; an explicit model overrides it.
func TestModelDefault(t *testing.T) {
	var zero dynring.Model
	if zero != dynring.ModelDefault {
		t.Fatalf("ModelDefault is not the zero Model: %v", dynring.ModelDefault)
	}
	w, err := dynring.Scenario{
		Size: 8, Landmark: dynring.NoLandmark,
		Algorithm: "PTBoundWithChirality", // spec default: SSYNC/PT
	}.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Model(); got != dynring.SSyncPT {
		t.Fatalf("default model = %v, want %v", got, dynring.SSyncPT)
	}
	w, err = dynring.Scenario{
		Size: 8, Landmark: dynring.NoLandmark,
		Algorithm: "PTBoundWithChirality",
		Model:     dynring.SSyncNS,
	}.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Model(); got != dynring.SSyncNS {
		t.Fatalf("override model = %v, want %v", got, dynring.SSyncNS)
	}
}

// fingerprintOf fails the test on error.
func fingerprintOf(t *testing.T, sc dynring.Scenario) string {
	t.Helper()
	fp, err := sc.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint(%+v): %v", sc, err)
	}
	return fp
}

func TestFingerprintCanonicalizesDefaults(t *testing.T) {
	implicit := dynring.Scenario{
		Size:      8,
		Landmark:  0,
		Algorithm: "LandmarkWithChirality",
	}
	spec, ok := dynring.LookupAlgorithm("LandmarkWithChirality")
	if !ok {
		t.Fatal("algorithm missing")
	}
	explicit := implicit
	explicit.Name = "a different label"
	explicit.Model = spec.Models[0]
	explicit.UpperBound = 8
	explicit.ExactSize = 8
	explicit.Starts = []int{0, 4}
	explicit.Orients = []dynring.GlobalDir{dynring.CW, dynring.CW}
	explicit.MaxRounds = dynring.DefaultBudget(spec, 8)

	fi, fe := fingerprintOf(t, implicit), fingerprintOf(t, explicit)
	if fi != fe {
		t.Fatalf("spelling defaults explicitly changed the fingerprint: %s vs %s", fi, fe)
	}
	if len(fi) != 32 {
		t.Fatalf("fingerprint %q is not 32 hex chars", fi)
	}
}

func TestFingerprintSeparatesInputs(t *testing.T) {
	base := dynring.Scenario{
		Size:           8,
		Landmark:       0,
		Algorithm:      "LandmarkWithChirality",
		AdversaryLabel: "random(p=0.5)",
		NewAdversary:   dynring.RandomEdgesFactory(0.5),
		Seed:           1,
	}
	fp := fingerprintOf(t, base)
	mutate := []func(*dynring.Scenario){
		func(s *dynring.Scenario) { s.Size = 9 },
		func(s *dynring.Scenario) { s.Landmark = 1 },
		func(s *dynring.Scenario) { s.Seed = 2 },
		func(s *dynring.Scenario) { s.AdversaryLabel = "random(p=0.6)" },
		func(s *dynring.Scenario) { s.NewAdversary = nil; s.AdversaryLabel = "" },
		// A label that is literally "nil" (or "none") must not collide with
		// adversary absence — absence is encoded outside the label space.
		func(s *dynring.Scenario) { s.AdversaryLabel = "nil" },
		func(s *dynring.Scenario) { s.AdversaryLabel = "none" },
		func(s *dynring.Scenario) { s.MaxRounds = 17 },
		func(s *dynring.Scenario) { s.StopWhenExplored = true },
		func(s *dynring.Scenario) { s.DetectCycles = true },
		func(s *dynring.Scenario) { s.FairnessBound = 5 },
		func(s *dynring.Scenario) { s.Starts = []int{1, 5} },
	}
	seen := map[string]int{fp: -1}
	for i, mut := range mutate {
		sc := base
		mut(&sc)
		got := fingerprintOf(t, sc)
		if prev, dup := seen[got]; dup {
			t.Fatalf("mutation %d collides with %d (fingerprint %s)", i, prev, got)
		}
		seen[got] = i
	}
	// And it is a pure function: same value, same hash.
	if again := fingerprintOf(t, base); again != fp {
		t.Fatalf("fingerprint unstable: %s then %s", fp, again)
	}
}

// TestFingerprintGolden pins the canonical encoding: if this changes, the
// encoding changed, and fingerprintVersion must be bumped (stale caches
// would otherwise serve results computed under different rules).
func TestFingerprintGolden(t *testing.T) {
	fp := fingerprintOf(t, dynring.Scenario{
		Size:      8,
		Landmark:  0,
		Algorithm: "LandmarkWithChirality",
		Seed:      7,
	})
	const want = "cfcfac17a9a46f4dd4c787581e3cc8eb"
	if fp != want {
		t.Fatalf("golden fingerprint drifted: got %s, want %s", fp, want)
	}
}

// TestFingerprintAllocBound gates Fingerprint's cost on the service's
// admission path, where it runs for every row of every submission: the
// resolve, the pre-image and the digest's hex encoding all stay on the
// stack, so the one allocation is the returned string.
func TestFingerprintAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	sc := dynring.Scenario{
		Size:           16,
		Landmark:       0,
		Algorithm:      "LandmarkWithChirality",
		AdversaryLabel: "random(p=0.5)",
		NewAdversary:   dynring.RandomEdgesFactory(0.5),
		Seed:           7,
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := sc.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 1
	if avg > maxAllocs {
		t.Fatalf("Fingerprint allocates %.1f objects per call, want ≤ %d", avg, maxAllocs)
	}
}

func TestFingerprintErrors(t *testing.T) {
	// Custom protocol factories have no canonical encoding.
	custom := dynring.Scenario{
		Size: 8,
		NewProtocols: func() ([]dynring.Protocol, error) {
			return nil, errors.New("never called")
		},
	}
	if _, err := custom.Fingerprint(); !errors.Is(err, dynring.ErrNotFingerprintable) {
		t.Fatalf("custom protocols: %v", err)
	}
	// An adversary without a label is ambiguous as a cache key.
	unlabeled := dynring.Scenario{
		Size:         8,
		Landmark:     0,
		Algorithm:    "LandmarkWithChirality",
		NewAdversary: dynring.RandomEdgesFactory(0.5),
	}
	if _, err := unlabeled.Fingerprint(); !errors.Is(err, dynring.ErrNotFingerprintable) {
		t.Fatalf("unlabeled adversary: %v", err)
	}
	// Validation failures surface, as in Validate.
	invalid := dynring.Scenario{Size: 8, Algorithm: "Nope"}
	if _, err := invalid.Fingerprint(); !errors.Is(err, dynring.ErrUnknownAlgorithm) {
		t.Fatalf("invalid scenario: %v", err)
	}
}

// TestFingerprintContract is the cache-correctness argument in test form:
// equal fingerprints imply identical Results.
func TestFingerprintContract(t *testing.T) {
	a := dynring.Scenario{
		Size:           10,
		Landmark:       0,
		Algorithm:      "LandmarkWithChirality",
		AdversaryLabel: "random(p=0.5)",
		NewAdversary:   dynring.RandomEdgesFactory(0.5),
		Seed:           11,
	}
	b := a
	b.Name = "other-name" // excluded from the fingerprint, must not matter
	if fingerprintOf(t, a) != fingerprintOf(t, b) {
		t.Fatal("Name leaked into the fingerprint")
	}
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("equal fingerprints, different results:\n%+v\n%+v", ra, rb)
	}
}
