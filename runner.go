package dynring

import (
	"context"
	"errors"
	"math/rand"

	"dynring/internal/adversary"
	"dynring/internal/ring"
	"dynring/internal/sim"
)

// Runner executes scenarios back-to-back on one goroutine, reusing state
// that is invariant across runs: the simulation World (its agent table,
// visited bitmap and per-round scratch are Reset in place instead of
// reallocated) and the immutable ring topologies, cached per
// (size, landmark). A sweep worker that runs thousands of scenarios through
// one Runner therefore allocates per run only what genuinely differs
// between runs — fresh protocol instances, the adversary, and the Result.
//
// Run produces exactly the same Result as Scenario.Run for every scenario:
// reuse is invisible in the output (the engine parity golden test and the
// sweep determinism gate both execute through Runners).
//
// The zero value is ready to use. A Runner is NOT safe for concurrent use;
// give each worker its own.
// Sweep.Stream and the ringsimd service do this automatically — reach for
// an explicit Runner only when driving many scenarios by hand:
//
//	r := dynring.NewRunner()
//	for _, sc := range scenarios {
//		res, err := r.Run(ctx, sc)
//		...
//	}
type Runner struct {
	world     sim.World
	rings     map[ringKey]*ring.Ring
	lastStats RunStats
	// rngs are the seeded adversaries' sources, lent afresh to every run
	// (adversary.Seed); lent counts those the current run holds.
	rngs []*rand.Rand
	lent int

	// Memo optionally attaches an in-process result memo: scenarios whose
	// memo keys match a cached entry replay the stored Result instead of
	// executing (see Memo for the key construction and its correctness
	// argument). A Memo is concurrency-safe and meant to be shared — one
	// Memo across all workers of a sweep, or across repeated sweeps.
	// Scenarios without a canonical fingerprint (NewProtocols, unlabelled
	// adversary factories) bypass the memo and execute normally.
	Memo *Memo
}

// RunStats is the engine's per-run execution accounting: how the Result was
// produced, as opposed to what it says. RoundsStepped+RoundsLeapt equals
// Result.Rounds, so the leap fast path's win is directly observable — a run
// that spends most of its horizon blocked reports a leap ratio near 1.
// Stats describe one concrete execution, not the scenario: they differ
// between the leap and slow paths (which produce identical Results), are
// zero for results replayed from a Memo or cache, and are therefore carried
// beside Results (SweepResult.Stats), never inside them.
type RunStats struct {
	// RoundsStepped counts rounds executed one by one; RoundsLeapt counts
	// rounds skipped by the quiescence-leap fast path.
	RoundsStepped int `json:"rounds_stepped"`
	RoundsLeapt   int `json:"rounds_leapt"`
	// Leaps counts committed leaps.
	Leaps int `json:"leaps"`
	// LeapProbesDisqualified counts engine-quiescent rounds whose leap
	// probe was invalidated by a fairness- or ET-forced activation.
	LeapProbesDisqualified int `json:"leap_probes_disqualified"`
	// CycleDetections counts configuration-cycle certificates (0 or 1 per
	// run, and only when Scenario.DetectCycles is set).
	CycleDetections int `json:"cycle_detections"`
}

// LeapRatio is the fraction of the run's rounds covered by leaps: 0 when
// every round was stepped (or nothing ran), approaching 1 when the run was
// dominated by provably quiescent rounds.
func (s RunStats) LeapRatio() float64 {
	total := s.RoundsStepped + s.RoundsLeapt
	if total == 0 {
		return 0
	}
	return float64(s.RoundsLeapt) / float64(total)
}

// ringKey identifies an immutable ring topology.
type ringKey struct {
	size     int
	landmark int
}

// NewRunner returns an empty Runner, the same as a zero Runner; it grows
// its reusable state on first use.
func NewRunner() *Runner {
	return &Runner{}
}

// ring returns the cached topology for (n, landmark), building it on first
// request. Rings are immutable, so sharing one instance across runs is safe.
func (r *Runner) ring(n, landmark int) (*ring.Ring, error) {
	k := ringKey{size: n, landmark: landmark}
	if rg, ok := r.rings[k]; ok {
		return rg, nil
	}
	rg, err := ring.NewWithLandmark(n, landmark)
	if err != nil {
		return nil, err
	}
	if r.rings == nil {
		r.rings = make(map[ringKey]*ring.Ring)
	}
	r.rings[k] = rg
	return rg, nil
}

// Run executes one scenario, reusing the Runner's world and ring cache. It
// is Scenario.RunContext with batched-execution economics: validation,
// protocol construction and the Result are per-run as always, but the
// engine state is recycled. On error the Runner stays usable — the next Run
// fully reinitializes the world. When a Memo is attached, Run consults it
// exactly like RunCached, discarding only the replayed-vs-executed bit.
func (r *Runner) Run(ctx context.Context, sc Scenario) (Result, error) {
	res, _, err := r.RunCached(ctx, sc)
	return res, err
}

// RunCached is Run plus provenance: the boolean reports whether the Result
// was replayed from the attached Memo (a cache hit, or another worker's
// concurrent execution of the same key) rather than executed by this call.
// Without a Memo it is always false. Replayed Results are exact — the memo
// key construction guarantees key equality implies Result identity — so the
// bit is informational (SweepResult.Cached), never a quality warning.
func (r *Runner) RunCached(ctx context.Context, sc Scenario) (Result, bool, error) {
	r.lastStats = RunStats{}
	if r.Memo == nil {
		res, err := r.run(ctx, sc)
		return res, false, err
	}
	key, err := sc.memoKey()
	if err != nil {
		if errors.Is(err, ErrNotFingerprintable) {
			res, runErr := r.run(ctx, sc)
			return res, false, runErr
		}
		// Any other memoKey failure is a validation failure: running would
		// report the same error through resolve.
		return Result{}, false, err
	}
	return r.Memo.group.Do(ctx, key, func() (Result, error) { return r.run(ctx, sc) })
}

// nextRand lends the current run the Runner's next unused source.
func (r *Runner) nextRand() *rand.Rand {
	if r.lent == len(r.rngs) {
		r.rngs = append(r.rngs, rand.New(rand.NewSource(1)))
	}
	r.lent++
	return r.rngs[r.lent-1]
}

// LastStats returns the execution accounting of the most recent Run (or
// RunCached) call. It is zero before the first run, after an error, and for
// results replayed from the Memo — replay executes no rounds. A Runner is
// single-goroutine, so "last" is unambiguous; callers that interleave runs
// must read the stats before the next call.
func (r *Runner) LastStats() RunStats { return r.lastStats }

// run executes one scenario on the reused world, unconditionally.
func (r *Runner) run(ctx context.Context, sc Scenario) (Result, error) {
	rv, err := sc.resolveRings(true, r.ring)
	if err != nil {
		return Result{}, err
	}
	cfg := sc.simConfig(rv)
	r.lent = 0
	adversary.Seed(cfg.Adversary, r.nextRand)
	if err := r.world.Reset(cfg); err != nil {
		return Result{}, err
	}
	res, st, err := sim.RunContextStats(ctx, &r.world, sim.RunOptions{
		MaxRounds:        rv.maxRounds,
		StopWhenExplored: sc.StopWhenExplored,
		DetectCycles:     sc.DetectCycles,
		DisableLeap:      sc.DisableLeap,
	})
	if err != nil {
		return Result{}, err
	}
	r.lastStats = RunStats{
		RoundsStepped:          st.RoundsStepped,
		RoundsLeapt:            st.RoundsLeapt,
		Leaps:                  st.Leaps,
		LeapProbesDisqualified: st.LeapProbesDisqualified,
		CycleDetections:        st.CycleDetections,
	}
	return res, nil
}
