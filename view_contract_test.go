package dynring_test

import (
	"reflect"
	"testing"

	"dynring"
	"dynring/internal/agent"
	"dynring/internal/core"
)

// clobber delegates to a protocol, then overwrites every field of the
// snapshot it was handed. Protocol.Step receives the snapshot by reference,
// valid only during the call, and the engine never reads it back, so a
// clobbered run must be indistinguishable from the plain one.
type clobber struct{ inner dynring.Protocol }

func (c clobber) Step(v *dynring.View) (dynring.Decision, error) {
	d, err := c.inner.Step(v)
	*v = dynring.View{
		OnPort: true, PortDir: agent.Right, AtLandmark: true,
		OthersInNode: 5, OthersOnLeftPort: 3, OthersOnRightPort: 4,
		Moved: true, Failed: true,
	}
	return d, err
}

func (c clobber) State() string           { return c.inner.State() }
func (c clobber) Clone() dynring.Protocol { return clobber{c.inner.Clone()} }

// clobberFP is clobber for a protocol with a fingerprint: it forwards the
// fingerprint, so the wrapped run leaps and detects cycles exactly where
// the plain one does.
type clobberFP struct{ clobber }

func (c clobberFP) Clone() dynring.Protocol { return clobberFP{clobber{c.inner.Clone()}} }

func (c clobberFP) Fingerprint() string {
	return c.inner.(interface{ Fingerprint() string }).Fingerprint()
}

// clobbered returns sc with its registry protocols built through
// NewProtocols and wrapped in clobber, with every default NewProtocols
// would change (model, budget) pinned to the registry's.
func clobbered(t *testing.T, sc dynring.Scenario) (dynring.Scenario, dynring.Model) {
	t.Helper()
	spec, ok := dynring.LookupAlgorithm(sc.Algorithm)
	if !ok {
		t.Fatalf("%s: unknown algorithm %q", sc.Name, sc.Algorithm)
	}
	out := sc
	if out.Model == dynring.ModelDefault {
		out.Model = spec.Models[0]
	}
	if out.MaxRounds <= 0 {
		out.MaxRounds = dynring.DefaultBudget(spec, sc.Size)
	}
	params := core.Params{UpperBound: sc.UpperBound, ExactSize: sc.ExactSize}
	if params.UpperBound == 0 {
		params.UpperBound = sc.Size
	}
	if params.ExactSize == 0 {
		params.ExactSize = sc.Size
	}
	out.NewProtocols = func() ([]dynring.Protocol, error) {
		protos := make([]dynring.Protocol, spec.Agents)
		for i := range protos {
			p, err := spec.New(params)
			if err != nil {
				return nil, err
			}
			if _, fp := p.(interface{ Fingerprint() string }); fp {
				protos[i] = clobberFP{clobber{p}}
			} else {
				protos[i] = clobber{p}
			}
		}
		return protos, nil
	}
	return out, out.Model
}

// TestViewByReferenceContract runs every fifth scenario of the parity corpus
// twice, plainly and with each protocol wrapped in clobber, and requires
// identical Results. It fails if the engine reads a snapshot back after
// Step, or refills one without resetting it first. The slice must cover
// FSYNC, PT, ET and NS with at least one run in each whose agents all
// terminated.
func TestViewByReferenceContract(t *testing.T) {
	terminated := map[dynring.Model]int{}
	for i, sc := range parityScenarios(t) {
		if i%5 != 0 {
			continue
		}
		want, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		wrapped, model := clobbered(t, sc)
		got, err := wrapped.Run()
		if err != nil {
			t.Fatalf("%s clobbered: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: clobbering the snapshot changed the Result:\n got  %+v\n want %+v", sc.Name, got, want)
		}
		if want.Terminated == len(want.TerminatedAt) {
			terminated[model]++
		}
	}
	t.Logf("terminating runs per model: %v", terminated)
	for _, m := range []dynring.Model{dynring.FSync, dynring.SSyncPT, dynring.SSyncET, dynring.SSyncNS} {
		if terminated[m] == 0 {
			t.Errorf("the slice holds no terminating run under model %v", m)
		}
	}
}
