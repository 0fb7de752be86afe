package core_test

import (
	"testing"

	"dynring/internal/agent"
	"dynring/internal/core"
	"dynring/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	// The paper's 11 protocols plus the zoo's landmark-free algorithm
	// (Das–Bose–Sau 2021).
	names := core.Names()
	if len(names) != 12 {
		t.Fatalf("registry holds %d protocols, want 12: %v", len(names), names)
	}
	for _, name := range names {
		spec, ok := core.Lookup(name)
		if !ok {
			t.Fatalf("lookup %s failed", name)
		}
		if spec.Name != name || spec.Paper == "" || spec.Description == "" {
			t.Errorf("%s: incomplete metadata %+v", name, spec)
		}
		if spec.Agents < 2 || spec.Agents > 3 {
			t.Errorf("%s: agent count %d out of the paper's range", name, spec.Agents)
		}
		if len(spec.Models) == 0 {
			t.Errorf("%s: no models", name)
		}
	}
	if _, ok := core.Lookup("NoSuchAlgorithm"); ok {
		t.Fatal("lookup of a bogus name succeeded")
	}
}

func TestRegistryBuild(t *testing.T) {
	params := core.Params{UpperBound: 9, ExactSize: 9}
	for _, spec := range core.All() {
		protos, err := core.Build(spec.Name, spec.Agents, params)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Name, err)
		}
		if len(protos) != spec.Agents {
			t.Fatalf("%s: built %d instances", spec.Name, len(protos))
		}
		// Instances must be distinct objects with private state.
		if spec.Agents >= 2 && protos[0] == protos[1] {
			t.Fatalf("%s: shared instance", spec.Name)
		}
		for _, p := range protos {
			if p.State() == "" {
				t.Fatalf("%s: empty state label", spec.Name)
			}
		}
	}
	if _, err := core.Build("Bogus", 2, params); err == nil {
		t.Fatal("building a bogus protocol succeeded")
	}
	if _, err := core.Build("KnownNNoChirality", 2, core.Params{UpperBound: 1}); err == nil {
		t.Fatal("bound below 3 must be rejected")
	}
	if _, err := core.Build("ETBoundNoChirality", 3, core.Params{ExactSize: 2}); err == nil {
		t.Fatal("size below 3 must be rejected")
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, spec := range core.All() {
		p, err := spec.New(core.Params{UpperBound: 8, ExactSize: 8})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		clone := p.Clone()
		// Stepping the clone must not disturb the original's state label.
		before := p.State()
		if _, err := clone.Step(&agent.View{}); err != nil {
			t.Fatalf("%s clone step: %v", spec.Name, err)
		}
		if _, err := clone.Step(&agent.View{OnPort: true, PortDir: agent.Left}); err != nil {
			t.Fatalf("%s clone step: %v", spec.Name, err)
		}
		if got := p.State(); got != before {
			t.Errorf("%s: original state changed from %q to %q after clone steps", spec.Name, before, got)
		}
	}
}

func TestTerminationAndKnowledgeStrings(t *testing.T) {
	if core.Explicit.String() != "explicit" || core.Partial.String() != "partial" ||
		core.Unconscious.String() != "unconscious" || core.Termination(0).String() != "invalid" {
		t.Fatal("Termination.String is broken")
	}
	if core.KnowNothing.String() != "none" || core.KnowUpperBound.String() != "upper bound N" ||
		core.KnowExactSize.String() != "exact n" || core.Knowledge(0).String() != "invalid" {
		t.Fatal("Knowledge.String is broken")
	}
}

func TestFingerprintsWhereSound(t *testing.T) {
	// The SSYNC protocols advertise fingerprints (bounded decision state);
	// the FSYNC time-driven ones must not.
	wantFP := map[string]bool{
		"PTBoundWithChirality":    true,
		"PTLandmarkWithChirality": true,
		"PTBoundNoChirality":      true,
		"PTLandmarkNoChirality":   true,
		"ETBoundNoChirality":      true,
		"ETUnconscious":           true,
	}
	for _, spec := range core.All() {
		p, err := spec.New(core.Params{UpperBound: 8, ExactSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		_, has := p.(sim.Fingerprinter)
		if has != wantFP[spec.Name] {
			t.Errorf("%s: fingerprint support = %v, want %v", spec.Name, has, wantFP[spec.Name])
		}
	}
}
