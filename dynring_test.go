package dynring_test

import (
	"errors"
	"strings"
	"testing"

	"dynring"
)

func TestRunQuickstart(t *testing.T) {
	res, err := dynring.Scenario{
		Size:         12,
		Landmark:     0,
		Algorithm:    "LandmarkWithChirality",
		NewAdversary: dynring.Fixed(dynring.RandomEdges(0.5, 42)),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explored || res.Terminated != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRunDefaults(t *testing.T) {
	// Defaults: even spacing, chirality, bound = size, FSYNC regime.
	res, err := dynring.Scenario{
		Size:      9,
		Landmark:  dynring.NoLandmark,
		Algorithm: "KnownNNoChirality",
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explored || res.Terminated != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
	want := 3*9 - 6
	for i, tr := range res.TerminatedAt {
		if tr != want {
			t.Errorf("agent %d terminated at %d, want %d", i, tr, want)
		}
	}
}

func TestRunSSYNCAlgorithm(t *testing.T) {
	res, err := dynring.Scenario{
		Size:         8,
		Landmark:     dynring.NoLandmark,
		Algorithm:    "PTBoundWithChirality",
		NewAdversary: dynring.Fixed(dynring.RandomActivation(0.6, 7, dynring.RandomEdges(0.5, 8))),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explored || res.Terminated < 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	tests := []struct {
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
			name: "chirality violated",
			sc: dynring.Scenario{Size: 8, Landmark: 0, Algorithm: "LandmarkWithChirality",
				Orients: []dynring.GlobalDir{dynring.CW, dynring.CCW}},
			want: dynring.ErrRequirement,
		},
		{
			name: "bound below size",
			sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
				Algorithm: "KnownNNoChirality", UpperBound: 5},
			want: dynring.ErrRequirement,
		},
		{
			name: "wrong agent count",
			sc: dynring.Scenario{Size: 8, Landmark: dynring.NoLandmark,
				Algorithm: "KnownNNoChirality", Starts: []int{0, 1, 2}},
			want: dynring.ErrRequirement,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.sc.Run(); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestAlgorithmsRegistry(t *testing.T) {
	// The paper's 11 protocols plus the zoo's landmark-free algorithm.
	algos := dynring.Algorithms()
	if len(algos) != 12 {
		t.Fatalf("registry has %d algorithms, want 12", len(algos))
	}
	for _, a := range algos {
		if a.Name == "" || a.Paper == "" || a.Description == "" || a.Agents < 2 || len(a.Models) == 0 {
			t.Errorf("incomplete spec: %+v", a)
		}
		if _, ok := dynring.LookupAlgorithm(a.Name); !ok {
			t.Errorf("lookup failed for %s", a.Name)
		}
	}
}

func TestTraceObserver(t *testing.T) {
	rec := dynring.NewTrace(8)
	_, err := dynring.Scenario{
		Size:         8,
		Landmark:     dynring.NoLandmark,
		Algorithm:    "KnownNNoChirality",
		NewAdversary: dynring.Fixed(dynring.KeepEdgeRemoved(3)),
		Observer:     rec,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rec.RenderString(dynring.TraceOptions{Landmark: dynring.NoLandmark, MaxRows: 12})
	if !strings.Contains(out, "x") || !strings.Contains(out, "round") {
		t.Fatalf("diagram incomplete:\n%s", out)
	}
}

// maintenanceWindow is a custom adversary written against the public API:
// it removes a rotating edge, one per "maintenance window" of w rounds.
type maintenanceWindow struct{ w int }

func (m maintenanceWindow) Activate(_ int, w *dynring.World) []int {
	ids := make([]int, w.NumAgents())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (m maintenanceWindow) MissingEdge(t int, w *dynring.World, _ []dynring.Intent) int {
	return (t / m.w) % w.Ring().Size()
}

func TestCustomAdversary(t *testing.T) {
	res, err := dynring.Scenario{
		Size:         10,
		Landmark:     dynring.NoLandmark,
		Algorithm:    "UnconsciousExploration",
		NewAdversary: dynring.Fixed(maintenanceWindow{w: 3}),
		Orients:      []dynring.GlobalDir{dynring.CW, dynring.CCW},
		MaxRounds:    2000, StopWhenExplored: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explored {
		t.Fatalf("not explored: %+v", res)
	}
}
