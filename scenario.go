package dynring

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dynring/internal/adversary"
	"dynring/internal/core"
	"dynring/internal/ring"
	"dynring/internal/sim"
)

// ErrNotFingerprintable is returned by Scenario.Fingerprint for scenarios
// whose identity cannot be captured as data: custom protocol factories, or
// an adversary factory without an AdversaryLabel naming it.
var ErrNotFingerprintable = errors.New("dynring: scenario is not content-addressable")

// AdversaryFactory constructs a fresh adversary for one run. Scenarios carry
// factories rather than live adversary instances so a scenario value stays
// replayable: stateful strategies (seeded randomness, alternation counters,
// recording logs) are rebuilt from scratch, with the same seed, every time
// the scenario is executed.
type AdversaryFactory func(seed int64) Adversary

// Fixed adapts a ready-made adversary instance into an AdversaryFactory that
// ignores the seed. Use it for the stateless proof strategies (GreedyBlocking,
// FrontierGuarding, PinAgent, ...); for seeded strategies prefer a factory
// that consumes the seed, so sweeps decorrelate their runs. Every run gets
// the same instance, so a scenario holding a stateful one (RandomEdges, a
// custom strategy with counters) replays only if it is rebuilt per run.
func Fixed(a Adversary) AdversaryFactory {
	return func(int64) Adversary { return a }
}

// RandomEdgesFactory is the seeded-per-run counterpart of RandomEdges: each
// run draws its edge removals from the scenario's own seed. Like every
// seeded factory here, it builds an adversary for exactly one run, which
// a Runner seeds from a source it reuses across runs.
func RandomEdgesFactory(p float64) AdversaryFactory {
	return func(seed int64) Adversary { return adversary.RunScoped(RandomEdges(p, seed)) }
}

// RandomActivationFactory is the seeded-per-run counterpart of
// RandomActivation. The edge strategy is itself a factory (nil: never remove
// an edge) and receives a seed derived from the run's seed.
func RandomActivationFactory(p float64, edges AdversaryFactory) AdversaryFactory {
	return func(seed int64) Adversary {
		var inner Adversary
		if edges != nil {
			inner = edges(seed + 1)
		}
		return adversary.RunScoped(RandomActivation(p, seed, inner))
	}
}

// TIntervalFactory is the seeded-per-run counterpart of TIntervalConnected:
// each run draws its phase edges from the scenario's own seed.
func TIntervalFactory(t int) AdversaryFactory {
	return func(seed int64) Adversary { return adversary.RunScoped(TIntervalConnected(t, seed)) }
}

// RecurrentFactory builds a fresh RecurrentBlocking instance per run. The
// strategy is deterministic but stateful (it tracks the current blockage
// streak), so replayable scenarios must rebuild it rather than share one
// instance via Fixed.
func RecurrentFactory(w int) AdversaryFactory {
	return func(int64) Adversary { return RecurrentBlocking(w) }
}

// Scenario fully describes one exploration run as a plain value: topology,
// algorithm, regime, initial configuration, a-priori knowledge, dynamics and
// budget. It carries an adversary *constructor*, so the same Scenario value
// replays to the same Result, and it separates validation (Validate) from
// execution (Run / NewWorld).
//
// The zero value of most fields means "use the algorithm's default":
// Starts defaults to even spacing, Orients to all-CW, Model to the first
// regime of the algorithm's spec, UpperBound/ExactSize to Size, and
// MaxRounds to DefaultBudget.
type Scenario struct {
	// Name is an optional label (sweeps fill it with the grid coordinates).
	Name string
	// AdversaryLabel optionally names the dynamics; Aggregate keys on it.
	AdversaryLabel string

	// Size is the number of ring nodes (≥ 3).
	Size int
	// Landmark is the landmark node, or NoLandmark (the zero value is node
	// 0 — set NoLandmark explicitly for anonymous rings).
	Landmark int

	// Algorithm is a registry name; see Algorithms. Ignored when
	// NewProtocols is set.
	Algorithm string
	// NewProtocols optionally builds the agents directly, bypassing the
	// registry and its assumption checks. It exists for custom protocols
	// and for deliberately misusing an algorithm (the impossibility
	// experiments run chirality algorithms with mixed orientations, and ET
	// algorithms fed a wrong exact size). The factory must return fresh
	// instances on every call.
	NewProtocols func() ([]Protocol, error)

	// Model overrides the algorithm's default regime; leave ModelDefault
	// to use the first entry of its spec (FSync for custom protocols).
	Model Model
	// UpperBound is the known bound N for algorithms that require one;
	// defaults to Size.
	UpperBound int
	// ExactSize is the known exact size for algorithms that require it;
	// defaults to Size.
	ExactSize int

	// Starts are the agents' initial nodes; defaults to even spacing.
	Starts []int
	// Orients are the agents' orientations; defaults to all CW (chirality).
	Orients []GlobalDir

	// NewAdversary constructs the dynamics for one run, receiving Seed;
	// nil means an always-connected ring with full activation.
	NewAdversary AdversaryFactory
	// Seed is passed to NewAdversary; sweeps derive it per scenario.
	Seed int64

	// MaxRounds bounds the run; defaults to DefaultBudget for the
	// algorithm on a ring of Size nodes.
	MaxRounds int
	// StopWhenExplored ends the run at full coverage (useful for the
	// unconscious algorithms).
	StopWhenExplored bool
	// FairnessBound overrides the SSYNC fairness horizon (0 = default).
	FairnessBound int
	// DetectCycles enables configuration-cycle certificates when all
	// components support fingerprints.
	DetectCycles bool
	// DisableLeap forces the engine's round-by-round slow path even when
	// the run qualifies for quiescence leaping (deterministic scheduled
	// adversary, fingerprint-capable protocols, no observer). Leaping is
	// provably result-identical, so the flag exists for verification and
	// debugging; like Observer it does not affect the Result and is
	// excluded from Fingerprint.
	DisableLeap bool
	// Observer optionally receives round records (e.g. a TraceRecorder).
	// Sweeps drop it: one observer shared across concurrent runs would
	// race. An observer forces the engine's round-by-round slow path.
	Observer Observer
}

// resolved is a validated scenario with every default filled in, ready to
// assemble a World once built (see resolveRings).
type resolved struct {
	ring   *ring.Ring // nil until built
	spec   Algorithm  // zero for custom protocol factories
	protos []Protocol
	agents int
	// starts and orients are the scenario's own; until built, nil stands
	// for the default (even spacing, all CW) — see start and orient.
	starts    []int
	orients   []GlobalDir
	model     Model
	maxRounds int
	// params are the normalized knowledge parameters (defaults filled in);
	// zero for custom protocol factories, which take no knowledge.
	params core.Params
}

// start and orient are agent i's start node and orientation, defaults
// included.
func (r *resolved) start(i, size int) int {
	if r.starts == nil {
		return i * size / r.agents
	}
	return r.starts[i]
}

func (r *resolved) orient(i int) GlobalDir {
	if r.orients == nil {
		return CW
	}
	return r.orients[i]
}

// resolve validates s and fills in defaults. It is the single source of
// truth behind Validate, Fingerprint, NewWorld and Run. With build=false
// nothing is built — no ring, no default starts or orients, no registry
// protocols — so resolving a registry scenario allocates nothing; a
// NewProtocols factory is still invoked either way, since the agent count
// is known only to it.
func (s Scenario) resolve(build bool) (resolved, error) {
	return s.resolveRings(build, ring.NewWithLandmark)
}

// resolveRings is resolve with an injectable ring constructor, so a batched
// Runner can serve the (immutable) topology from its cache instead of
// rebuilding it for every scenario of a sweep.
func (s Scenario) resolveRings(build bool, newRing func(n, landmark int) (*ring.Ring, error)) (resolved, error) {
	var r resolved

	if s.NewProtocols == nil {
		spec, ok := core.Lookup(s.Algorithm)
		if !ok {
			return r, fmt.Errorf("%w: %q (known: %v)", ErrUnknownAlgorithm, s.Algorithm, core.Names())
		}
		r.spec = spec
	}

	if err := ring.Check(s.Size, s.Landmark); err != nil {
		return r, err
	}

	if s.NewProtocols != nil {
		protos, err := s.NewProtocols()
		if err != nil {
			return r, err
		}
		if len(protos) == 0 {
			return r, fmt.Errorf("%w: NewProtocols returned no agents", ErrRequirement)
		}
		r.protos = protos
		r.agents = len(protos)
	} else {
		r.agents = r.spec.Agents
		if r.spec.NeedsLandmark && s.Landmark == ring.NoLandmark {
			return r, fmt.Errorf("%w: %s needs a landmark node", ErrRequirement, r.spec.Name)
		}
	}

	r.starts = s.Starts
	if r.starts != nil && len(r.starts) != r.agents {
		return r, fmt.Errorf("%w: %s uses %d agents, got %d starts",
			ErrRequirement, s.algoLabel(), r.agents, len(r.starts))
	}
	r.orients = s.Orients
	if r.orients != nil && len(r.orients) != r.agents {
		return r, fmt.Errorf("%w: %s uses %d agents, got %d orientations",
			ErrRequirement, s.algoLabel(), r.agents, len(r.orients))
	}

	if s.NewProtocols == nil {
		if r.spec.NeedsChirality {
			for _, o := range r.orients {
				if o != r.orients[0] {
					return r, fmt.Errorf("%w: %s assumes chirality (one common orientation)",
						ErrRequirement, r.spec.Name)
				}
			}
		}
		params := core.Params{UpperBound: s.UpperBound, ExactSize: s.ExactSize}
		if params.UpperBound == 0 {
			params.UpperBound = s.Size
		}
		if params.ExactSize == 0 {
			params.ExactSize = s.Size
		}
		if r.spec.Knowledge == core.KnowUpperBound && params.UpperBound < s.Size {
			return r, fmt.Errorf("%w: bound N=%d below ring size %d", ErrRequirement, params.UpperBound, s.Size)
		}
		if r.spec.Knowledge == core.KnowExactSize && params.ExactSize != s.Size {
			return r, fmt.Errorf("%w: %s needs the exact ring size", ErrRequirement, r.spec.Name)
		}
		r.params = params
		if build {
			protos, err := core.Build(r.spec.Name, r.agents, params)
			if err != nil {
				return r, err
			}
			r.protos = protos
		}
	}

	r.model = s.Model
	if r.model == ModelDefault {
		if s.NewProtocols == nil {
			r.model = r.spec.Models[0]
		} else {
			r.model = FSync
		}
	}
	switch r.model {
	case FSync, SSyncNS, SSyncPT, SSyncET:
	default:
		return r, fmt.Errorf("%w: unknown model %d", ErrRequirement, int(r.model))
	}

	r.maxRounds = s.MaxRounds
	if r.maxRounds <= 0 {
		r.maxRounds = DefaultBudget(r.spec, s.Size)
	}

	if build {
		rg, err := newRing(s.Size, s.Landmark)
		if err != nil {
			return r, err
		}
		r.ring = rg
		if r.starts == nil {
			starts := make([]int, r.agents)
			for i := range starts {
				starts[i] = r.start(i, s.Size)
			}
			r.starts = starts
		}
		if r.orients == nil {
			orients := make([]GlobalDir, r.agents)
			for i := range orients {
				orients[i] = r.orient(i)
			}
			r.orients = orients
		}
	}
	return r, nil
}

// algoLabel names the scenario's algorithm for error messages.
func (s Scenario) algoLabel() string {
	if s.NewProtocols != nil {
		return "custom protocols"
	}
	return s.Algorithm
}

// Validate checks the scenario against the algorithm's assumptions without
// executing anything: registry membership, ring well-formedness, landmark
// and chirality requirements, start/orientation counts, and knowledge
// parameters. Errors wrap ErrUnknownAlgorithm or ErrRequirement.
//
// Registry protocols are not constructed; a NewProtocols factory, however,
// is invoked (and its result discarded) — the agent count the other checks
// need is known only to it.
func (s Scenario) Validate() error {
	_, err := s.resolve(false)
	return err
}

// The fingerprint encoding is versioned per model era, not globally: a
// scenario hashes under the newest version whose feature set it exercises.
// Scenarios expressible in the pre-zoo model space keep hashing under v1
// byte-for-byte (locked by TestFingerprintV1Regression), so grids submitted
// before the dynamics-model zoo landed keep hitting ringsimd caches; zoo
// scenarios hash under v2, so a future fix to multi-edge or zoo semantics
// bumps only v2 and invalidates only zoo cache entries.
//
// Bump a version whenever its encoding — or anything that changes a Result
// for the same encoded inputs, such as engine semantics for that feature
// set — changes, so stale caches can never serve results computed under
// different rules.
const (
	fingerprintVersionV1 = "dynring/scenario/v1"
	fingerprintVersionV2 = "dynring/scenario/v2"
)

// fingerprintV2Algorithms names the algorithms added with (or after) the
// dynamics-model zoo: scenarios running them hash under v2.
var fingerprintV2Algorithms = map[string]bool{
	"LandmarkFreeExactN": true,
}

// fingerprintV2AdversaryKinds names the adversary label kinds added with
// the zoo. Detection is purely syntactic (the kind prefix of the label,
// after any act() wrapper), so custom labels keep hashing under v1 exactly
// as they always have.
var fingerprintV2AdversaryKinds = map[string]bool{
	"tinterval": true,
	"capped":    true,
	"recurrent": true,
}

// fingerprintVersionFor selects the encoding version the resolved scenario
// needs: v2 when it exercises any post-v1 feature, v1 otherwise.
func (s *Scenario) fingerprintVersionFor(r *resolved) string {
	if fingerprintV2Algorithms[r.spec.Name] {
		return fingerprintVersionV2
	}
	if fingerprintV2AdversaryKinds[adversaryLabelKind(s.AdversaryLabel)] {
		return fingerprintVersionV2
	}
	return fingerprintVersionV1
}

// adversaryLabelKind extracts the kind prefix of an adversary label: the
// text before the first '(', after stripping one act(...)+ wrapper.
// "act(0.7)+capped(r=2)" → "capped"; labels without parameters are their
// own kind.
func adversaryLabelKind(label string) string {
	s := label
	if strings.HasPrefix(s, "act(") {
		if i := strings.Index(s, ")+"); i >= 0 {
			s = s[i+2:]
		}
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
		s = s[:i]
	}
	return s
}

// Fingerprint returns a canonical 128-bit content hash (32 hex characters)
// of everything that determines the scenario's Result. By the determinism
// guarantee — adversaries rebuilt from Seed, per-scenario sweep seeds
// derived from the scenario's identity (never its grid position), wall-clock
// excluded from Result — two scenarios with equal fingerprints produce
// identical Results, which is what makes the fingerprint safe as a
// result-cache key (see the ringsimd service).
//
// The hash covers the *resolved* scenario, so spelling a default explicitly
// (UpperBound equal to Size, Starts at even spacing, Model at the
// algorithm's first regime, MaxRounds at DefaultBudget) does not change the
// fingerprint. Name, Observer and DisableLeap are excluded: none of them
// affects the Result (quiescence leaping is result-identical by
// construction, see internal/sim).
//
// Dynamics are identified by AdversaryLabel plus Seed, not by the factory
// function itself, so the label must name the strategy and all its
// parameters; labels produced by AdversarySpec.Label and sweep expansion
// satisfy this. A scenario with a NewAdversary but no label, or with a
// NewProtocols factory, is rejected with ErrNotFingerprintable; validation
// failures surface like in Validate.
func (s Scenario) Fingerprint() (string, error) {
	if s.NewProtocols != nil {
		return "", fmt.Errorf("%w: NewProtocols factories have no canonical encoding", ErrNotFingerprintable)
	}
	if s.NewAdversary != nil && s.AdversaryLabel == "" {
		return "", fmt.Errorf("%w: adversary factory without AdversaryLabel", ErrNotFingerprintable)
	}
	r, err := s.resolve(false)
	if err != nil {
		return "", err
	}
	return s.fingerprint(&r), nil
}

// fingerprint is Fingerprint of a scenario resolved without build, which
// has neither a NewProtocols factory nor an unlabelled NewAdversary. Its
// one allocation is the string it returns.
func (s *Scenario) fingerprint(r *resolved) string {
	// The buffers live on the stack: appending the pre-image into one,
	// rather than allocating inside fingerprintPreimage, and encoding the
	// digest into the other saves a heap allocation each.
	sum := sha256.Sum256(s.fingerprintPreimage(make([]byte, 0, 256), r))
	var h [32]byte
	hex.Encode(h[:], sum[:16])
	return string(h[:])
}

// fingerprintPreimage appends the hashed text of the resolved scenario to
// b. The text is frozen — every byte of it is a cache key — and reads, in
// fmt terms:
//
//	"%s\n" version
//	"size=%d landmark=%d algo=%d:%s model=%d ub=%d es=%d\n"
//	"starts=%v orients=%v\n"  ([]int and []GlobalDir, e.g. "[0 4]" and "[cw ccw]")
//	"adv=%s seed=%d max=%d stop=%t fair=%d cycles=%t\n"
//
// Variable-length strings are length-prefixed so field boundaries stay
// unambiguous; everything else is fixed-form text. A nil adversary is
// encoded as "adv=-", outside the "adv=<len>:<label>" value space, so no
// label (not even a literal "nil" or "none") can collide with adversary
// absence.
func (s *Scenario) fingerprintPreimage(b []byte, r *resolved) []byte {
	b = append(b, s.fingerprintVersionFor(r)...)
	b = append(b, "\nsize="...)
	b = strconv.AppendInt(b, int64(s.Size), 10)
	b = append(b, " landmark="...)
	b = strconv.AppendInt(b, int64(s.Landmark), 10)
	b = append(b, " algo="...)
	b = appendLenPrefixed(b, r.spec.Name)
	b = append(b, " model="...)
	b = strconv.AppendInt(b, int64(r.model), 10)
	b = append(b, " ub="...)
	b = strconv.AppendInt(b, int64(r.params.UpperBound), 10)
	b = append(b, " es="...)
	b = strconv.AppendInt(b, int64(r.params.ExactSize), 10)
	b = append(b, "\nstarts=["...)
	for i := range r.agents {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(r.start(i, s.Size)), 10)
	}
	b = append(b, "] orients=["...)
	for i := range r.agents {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, r.orient(i).String()...)
	}
	b = append(b, "]\nadv="...)
	if s.NewAdversary != nil {
		b = appendLenPrefixed(b, s.AdversaryLabel)
	} else {
		b = append(b, '-')
	}
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, s.Seed, 10)
	b = append(b, " max="...)
	b = strconv.AppendInt(b, int64(r.maxRounds), 10)
	b = append(b, " stop="...)
	b = strconv.AppendBool(b, s.StopWhenExplored)
	b = append(b, " fair="...)
	b = strconv.AppendInt(b, int64(s.FairnessBound), 10)
	b = append(b, " cycles="...)
	b = strconv.AppendBool(b, s.DetectCycles)
	return append(b, '\n')
}

// appendLenPrefixed appends "<len>:<s>".
func appendLenPrefixed(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// simConfig assembles the engine configuration for a resolved scenario,
// constructing a fresh adversary from the factory. It is shared by NewWorld
// (which builds a World from scratch) and Runner.Run (which Resets a reused
// one).
func (s Scenario) simConfig(r resolved) sim.Config {
	var adv Adversary
	if s.NewAdversary != nil {
		adv = s.NewAdversary(s.Seed)
	}
	return sim.Config{
		Ring:          r.ring,
		Model:         r.model,
		Starts:        r.starts,
		Orients:       r.orients,
		Protocols:     r.protos,
		Adversary:     adv,
		Observer:      s.Observer,
		FairnessBound: s.FairnessBound,
	}
}

// newWorld assembles a World from a resolved scenario.
func (s Scenario) newWorld(r resolved) (*World, error) {
	cfg := s.simConfig(r)
	adversary.Seed(cfg.Adversary, nil)
	return sim.NewWorld(cfg)
}

// NewWorld validates s and assembles a World without running it, for callers
// that want to drive rounds manually via World.Step. Each call constructs
// fresh protocol and adversary instances.
func (s Scenario) NewWorld() (*World, error) {
	r, err := s.resolve(true)
	if err != nil {
		return nil, err
	}
	return s.newWorld(r)
}

// Run executes the scenario to completion.
func (s Scenario) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the scenario, polling ctx for cooperative
// cancellation. On cancellation it returns ctx.Err() and a zero Result.
func (s Scenario) RunContext(ctx context.Context) (Result, error) {
	r, err := s.resolve(true)
	if err != nil {
		return Result{}, err
	}
	w, err := s.newWorld(r)
	if err != nil {
		return Result{}, err
	}
	return sim.RunContext(ctx, w, sim.RunOptions{
		MaxRounds:        r.maxRounds,
		StopWhenExplored: s.StopWhenExplored,
		DetectCycles:     s.DetectCycles,
		DisableLeap:      s.DisableLeap,
	})
}
