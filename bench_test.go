// Benchmarks regenerating the paper's evaluation, one per table row and
// figure (see DESIGN.md's experiment index). The interesting output is the
// custom metrics: rounds/n for the linear-time claims, rounds/(n·log n) for
// Theorem 8, moves/n² for the quadratic PT claims — the *shape* of the
// paper's complexity map. Absolute ns/op figures measure the simulator, not
// the algorithms. BenchmarkSweep measures batch throughput of the
// Scenario/Sweep executor (scenarios/op via the reported metric).
package dynring_test

import (
	"context"
	"testing"

	"dynring"
	"dynring/internal/catchtree"
	"dynring/internal/expt"
	"dynring/internal/ids"
)

// mustRun executes a scenario and fails the benchmark on error.
func mustRun(b *testing.B, sc dynring.Scenario) dynring.Result {
	b.Helper()
	res, err := sc.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// mustRows executes an experiment group and fails on any failed verdict.
func mustRows(b *testing.B, f func() ([]expt.Row, error)) []expt.Row {
	b.Helper()
	rows, err := f()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if !r.OK {
			b.Fatalf("experiment failed: %s", r)
		}
	}
	return rows
}

// BenchmarkEngine_Step measures raw simulator throughput: one SSYNC/PT round
// with three agents on a 64-node ring under a random adversary. It reports 0
// allocs/op: the stock adversary's Activate returns World.AgentIDs, and the
// engine contributes nothing (gated by TestScenarioStepZeroAllocStockAdversaries).
func BenchmarkEngine_Step(b *testing.B) {
	newWorld := func(seed int64) *dynring.World {
		w, err := dynring.Scenario{
			Size:         64,
			Landmark:     dynring.NoLandmark,
			Algorithm:    "PTBoundNoChirality",
			Model:        dynring.SSyncPT,
			NewAdversary: dynring.RandomEdgesFactory(0.5),
			Seed:         seed,
		}.NewWorld()
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	w := newWorld(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Step(); err != nil {
			// The protocol may legitimately terminate: rebuild.
			b.StopTimer()
			w = newWorld(int64(i))
			b.StartTimer()
		}
	}
}

// BenchmarkEngine_StepFSync is the zero-allocation contract, benchmarked:
// the FSYNC steady state of World.Step must report 0 allocs/op (enforced as
// a hard gate by TestScenarioStepZeroAllocSteadyState and the engine-level
// TestStepZeroAllocSteadyState).
func BenchmarkEngine_StepFSync(b *testing.B) {
	w, err := dynring.Scenario{
		Size:      64,
		Landmark:  dynring.NoLandmark,
		Algorithm: "UnconsciousExploration",
		Model:     dynring.FSync,
	}.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_ColdRows measures the engine on the rows that dominate a
// cold service sweep: perfbench solo-cold's stepped template,
// {UnconsciousExploration, ETUnconscious} × n{8,16} under random(p=0.5) on
// an anonymous ring. Neither algorithm terminates and the random schedule
// never leaps, so every row steps its full 200n+4000-round budget. One op
// is the four rows through one Runner; ns/round divides the time by the
// rounds stepped.
func BenchmarkEngine_ColdRows(b *testing.B) {
	spec := dynring.AdversarySpec{Kind: "random", P: 0.5}
	f, err := spec.Factory()
	if err != nil {
		b.Fatal(err)
	}
	var rows []dynring.Scenario
	for _, algo := range []string{"UnconsciousExploration", "ETUnconscious"} {
		for _, n := range []int{8, 16} {
			rows = append(rows, dynring.Scenario{
				Size: n, Landmark: dynring.NoLandmark, Algorithm: algo,
				AdversaryLabel: spec.Label(), NewAdversary: f,
			})
		}
	}
	r := dynring.NewRunner()
	ctx := context.Background()
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range rows {
			sc.Seed = int64(i)
			res, err := r.Run(ctx, sc)
			if err != nil {
				b.Fatal(err)
			}
			rounds += res.Rounds
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}

// BenchmarkFingerprint measures Scenario.Fingerprint, which the sweep
// service runs for every row of every submission (see
// TestFingerprintAllocBound for its allocation gate).
func BenchmarkFingerprint(b *testing.B) {
	sc := dynring.Scenario{
		Size:           16,
		Landmark:       0,
		Algorithm:      "LandmarkWithChirality",
		AdversaryLabel: "random(p=0.5)",
		NewAdversary:   dynring.RandomEdgesFactory(0.5),
		Seed:           7,
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sc.Fingerprint(); err != nil {
			b.Fatal(err)
		}
	}
}

// runnerBatch is the scenario mix the Runner benchmarks execute per
// iteration: mixed algorithms and sizes, so world Reset always crosses
// configurations (the Runner's worst case for reuse).
func runnerBatch(b *testing.B) []dynring.Scenario {
	b.Helper()
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
		b.Fatal(err)
	}
	return scs
}

// BenchmarkRunner_Batched measures back-to-back scenario execution through
// one Runner (the sweep/service worker path: worlds Reset in place, rings
// cached); compare against BenchmarkRunner_Fresh for the reuse dividend.
func BenchmarkRunner_Batched(b *testing.B) {
	scs := runnerBatch(b)
	r := dynring.NewRunner()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			if _, err := r.Run(ctx, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(scs)), "scenarios/op")
}

// BenchmarkRunner_Fresh is the unbatched baseline: the same scenario mix,
// each run building its world from scratch.
func BenchmarkRunner_Fresh(b *testing.B) {
	scs := runnerBatch(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			if _, err := sc.RunContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(scs)), "scenarios/op")
}

// benchAdversaries builds a deterministic schedule-heavy adversary axis.
func benchAdversaries(b *testing.B, specs ...dynring.AdversarySpec) []dynring.SweepAdversary {
	b.Helper()
	out := make([]dynring.SweepAdversary, 0, len(specs))
	for _, spec := range specs {
		f, err := spec.Factory()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, dynring.SweepAdversary{Name: spec.Label(), New: f})
	}
	return out
}

// scheduleHeavySweep is BenchmarkSweep's grid: deterministic adversarial
// schedules (the paper's regime) over fingerprint-capable SSYNC algorithms
// and one FSYNC control, where blocked-waiting dominates — capped(r=2)
// blockades every coverage move, so those cells run to their full n²-scale
// horizons. This is the workload the quiescence leap rewrites: the engine
// proves the blockades are fixed points and skips them in O(1).
func scheduleHeavySweep() dynring.Sweep {
	return dynring.Sweep{
		Base: dynring.Scenario{Landmark: 0, StopWhenExplored: true},
		Algorithms: []string{
			"PTBoundWithChirality", "PTLandmarkWithChirality",
			"ETUnconscious", "KnownNNoChirality",
		},
		Sizes: []int{8, 16},
		Seeds: []int64{1, 2, 3, 4},
	}
}

// runSweepBench executes sw once per iteration and reports scenarios/op.
func runSweepBench(b *testing.B, mk func() dynring.Sweep) {
	b.Helper()
	sw := mk()
	scenarios, err := sw.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := mk().Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(scenarios)), "scenarios/op")
}

// BenchmarkSweep measures batch throughput of the concurrent executor on
// the schedule-heavy grid (128 scenarios, no memo): the quiescence leap is
// what keeps the capped-blockade cells — a quarter of the grid, each worth
// up to 900·n²+9000 rounds of provable non-progress — from dominating.
func BenchmarkSweep(b *testing.B) {
	runSweepBench(b, func() dynring.Sweep {
		sw := scheduleHeavySweep()
		sw.Adversaries = benchAdversaries(b,
			dynring.AdversarySpec{Kind: "greedy"},
			dynring.AdversarySpec{Kind: "capped", R: 2},
			dynring.AdversarySpec{Kind: "frontier"},
			dynring.AdversarySpec{Kind: "tinterval", T: 4},
		)
		return sw
	})
}

// memoSweepGrid is the memo benchmarks' grid. LandmarkFreeExactN is the
// deliberately leap-resistant row: a time-driven FSYNC protocol without
// fingerprints, whose capped-blockade cells burn their full O(n²) budgets
// round by round — so collapsing its seed axis (greedy and capped ignore
// their seeds) is worth real milliseconds, not just bookkeeping.
func memoSweepGrid(memo *dynring.Memo) dynring.Sweep {
	greedy, _ := dynring.AdversarySpec{Kind: "greedy"}.Factory()
	capped, _ := dynring.AdversarySpec{Kind: "capped", R: 2}.Factory()
	return dynring.Sweep{
		Base: dynring.Scenario{Landmark: dynring.NoLandmark, StopWhenExplored: true},
		Algorithms: []string{
			"LandmarkFreeExactN", "PTBoundNoChirality", "ETUnconscious",
		},
		Sizes: []int{8, 12},
		Seeds: []int64{1, 2, 3, 4},
		Adversaries: []dynring.SweepAdversary{
			{Name: "greedy", New: greedy},
			{Name: "capped(r=2)", New: capped},
		},
		Memo: memo,
	}
}

// BenchmarkSweepMemoCold: a fresh memo per sweep measures within-grid
// memoization — every (algorithm, size, adversary) cell executes once and
// its three seed-axis copies replay. Compare BenchmarkSweepMemoOff for the
// dividend.
func BenchmarkSweepMemoCold(b *testing.B) {
	runSweepBench(b, func() dynring.Sweep { return memoSweepGrid(dynring.NewMemo(4096)) })
}

// BenchmarkSweepMemoOff is BenchmarkSweepMemoCold's control: the same grid
// with memoization disabled executes all 48 scenarios.
func BenchmarkSweepMemoOff(b *testing.B) {
	runSweepBench(b, func() dynring.Sweep { return memoSweepGrid(nil) })
}

// BenchmarkSweepMemoHit: one memo shared across iterations measures the
// repeated-local-sweep path (the cmd/ringsim -memo default when the same
// grid is run again): everything replays, nothing executes.
func BenchmarkSweepMemoHit(b *testing.B) {
	memo := dynring.NewMemo(4096)
	if _, err := memoSweepGrid(memo).Run(context.Background()); err != nil {
		b.Fatal(err) // warm every key before the clock starts
	}
	runSweepBench(b, func() dynring.Sweep { return memoSweepGrid(memo) })
}

// BenchmarkLeap_BlockedRing pits the leap fast path against round-by-round
// stepping on a long-budget total blockade: two PT agents against
// capped(r=2), which removes both coverage edges every round, freezing the
// configuration for the whole 50k-round horizon. The "step" variant is the
// pre-leap engine's cost for the same Result.
func BenchmarkLeap_BlockedRing(b *testing.B) {
	base := dynring.Scenario{
		Size: 16, Landmark: dynring.NoLandmark,
		Algorithm:      "PTBoundWithChirality",
		AdversaryLabel: "capped(r=2)",
		NewAdversary:   dynring.Fixed(dynring.CappedRemoval(2)),
		MaxRounds:      50_000,
	}
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"leap", false}, {"step", true}} {
		b.Run(tc.name, func(b *testing.B) {
			sc := base
			sc.DisableLeap = tc.disable
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sc.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != dynring.OutcomeHorizon || res.TotalMoves != 0 {
					b.Fatalf("blockade broke: %+v", res)
				}
			}
		})
	}
}

// BenchmarkTable1_Impossibilities replays the Theorem 1/2 and
// Observation 1/2 constructions.
func BenchmarkTable1_Impossibilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRows(b, expt.Table1)
	}
}

// BenchmarkTable2_KnownN: Theorem 3 under the tight Figure 2 schedule.
// Metric: rounds/n, expected to approach 3.
func BenchmarkTable2_KnownN(b *testing.B) {
	const n = 64
	var rounds int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:         n,
			Landmark:     dynring.NoLandmark,
			Algorithm:    "KnownNNoChirality",
			Starts:       []int{0, 1},
			Orients:      []dynring.GlobalDir{dynring.CCW, dynring.CCW},
			NewAdversary: dynring.Fixed(figure2Adversary{n: n}),
		})
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(n), "rounds/n")
}

// figure2Adversary is the Figure 2 schedule expressed through the public
// interface (the internal adversary package also ships it).
type figure2Adversary struct{ n int }

func (f figure2Adversary) Activate(_ int, w *dynring.World) []int {
	ids := make([]int, w.NumAgents())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (f figure2Adversary) MissingEdge(t int, _ *dynring.World, _ []dynring.Intent) int {
	if t <= f.n-4 {
		return 0
	}
	return f.n - 2
}

// BenchmarkTable2_LandmarkChirality: Theorem 6. Metric: rounds/n (O(n)).
func BenchmarkTable2_LandmarkChirality(b *testing.B) {
	const n = 128
	var last int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:         n,
			Landmark:     0,
			Algorithm:    "LandmarkWithChirality",
			Starts:       []int{2, n/2 + 2},
			NewAdversary: dynring.Fixed(dynring.GreedyBlocking()),
		})
		if res.Terminated != 2 {
			b.Fatal("not fully terminated")
		}
		last = res.Rounds
	}
	b.ReportMetric(float64(last)/float64(n), "rounds/n")
}

// BenchmarkTable2_LandmarkNoChirality: Theorem 8.
// Metric: rounds/(n·⌈log n⌉) (O(n log n)).
func BenchmarkTable2_LandmarkNoChirality(b *testing.B) {
	const n = 32
	var last int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:         n,
			Landmark:     3,
			Algorithm:    "LandmarkNoChirality",
			Starts:       []int{0, 2 * n / 3},
			Orients:      []dynring.GlobalDir{dynring.CW, dynring.CCW},
			NewAdversary: dynring.Fixed(dynring.GreedyBlocking()),
		})
		if res.Terminated != 2 {
			b.Fatal("not fully terminated")
		}
		last = res.Rounds
	}
	b.ReportMetric(float64(last)/float64(n*5), "rounds/nlogn")
}

// BenchmarkTable2_Unconscious: Theorem 5. Metric: exploration rounds/n.
func BenchmarkTable2_Unconscious(b *testing.B) {
	const n = 64
	var explored int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:             n,
			Landmark:         dynring.NoLandmark,
			Algorithm:        "UnconsciousExploration",
			Starts:           []int{0, 1},
			Orients:          []dynring.GlobalDir{dynring.CW, dynring.CCW},
			NewAdversary:     dynring.Fixed(dynring.GreedyBlocking()),
			StopWhenExplored: true,
			MaxRounds:        64*n + 64,
		})
		if !res.Explored {
			b.Fatal("not explored")
		}
		explored = res.ExploredRound + 1
	}
	b.ReportMetric(float64(explored)/float64(n), "rounds/n")
}

// BenchmarkTable3_Impossibilities replays the Theorem 9/10/11/19
// constructions.
func BenchmarkTable3_Impossibilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRows(b, expt.Table3)
	}
}

// BenchmarkTable4_PTBound: Theorem 12 under the frontier-guard adversary.
// Metric: moves/n² (O(N²), quadratic lower-bound shape of Th 13).
func BenchmarkTable4_PTBound(b *testing.B) {
	const n = 32
	var moves int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:         n,
			Landmark:     dynring.NoLandmark,
			Algorithm:    "PTBoundWithChirality",
			Starts:       []int{0, 1},
			NewAdversary: dynring.Fixed(dynring.FrontierGuarding()),
		})
		if !res.Explored || res.Terminated < 1 {
			b.Fatal("run incomplete")
		}
		moves = res.TotalMoves
	}
	b.ReportMetric(float64(moves)/float64(n*n), "moves/n2")
}

// BenchmarkTable4_PTLandmark: Theorem 14. Metric: moves/n².
func BenchmarkTable4_PTLandmark(b *testing.B) {
	const n = 32
	var moves int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:         n,
			Landmark:     0,
			Algorithm:    "PTLandmarkWithChirality",
			Starts:       []int{1, 2},
			NewAdversary: dynring.Fixed(dynring.FrontierGuarding()),
		})
		if !res.Explored || res.Terminated < 1 {
			b.Fatal("run incomplete")
		}
		moves = res.TotalMoves
	}
	b.ReportMetric(float64(moves)/float64(n*n), "moves/n2")
}

// BenchmarkTable4_PT3Bound: Theorem 16 (three agents, no chirality).
// Metric: moves/n².
func BenchmarkTable4_PT3Bound(b *testing.B) {
	const n = 18
	var moves int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:         n,
			Landmark:     dynring.NoLandmark,
			Algorithm:    "PTBoundNoChirality",
			Starts:       []int{0, n / 3, 2 * n / 3},
			Orients:      []dynring.GlobalDir{dynring.CW, dynring.CCW, dynring.CW},
			NewAdversary: dynring.Fixed(dynring.GreedyBlocking()),
		})
		if !res.Explored || res.Terminated < 1 {
			b.Fatal("run incomplete")
		}
		moves = res.TotalMoves
	}
	b.ReportMetric(float64(moves)/float64(n*n), "moves/n2")
}

// BenchmarkTable4_ETBound: Theorem 20. Metric: moves/n².
func BenchmarkTable4_ETBound(b *testing.B) {
	const n = 12
	var moves int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:      n,
			Landmark:  dynring.NoLandmark,
			Algorithm: "ETBoundNoChirality",
			Starts:    []int{0, n / 3, 2 * n / 3},
			Orients:   []dynring.GlobalDir{dynring.CW, dynring.CCW, dynring.CCW},
			NewAdversary: dynring.RandomActivationFactory(0.6,
				dynring.RandomEdgesFactory(0.4)),
			Seed: int64(i) + 5,
		})
		if !res.Explored || res.Terminated < 1 {
			b.Fatal("run incomplete")
		}
		moves = res.TotalMoves
	}
	b.ReportMetric(float64(moves)/float64(n*n), "moves/n2")
}

// BenchmarkTable4_ETUnconscious: Theorem 18. Metric: exploration rounds/n.
func BenchmarkTable4_ETUnconscious(b *testing.B) {
	const n = 32
	var explored int
	for i := 0; i < b.N; i++ {
		res := mustRun(b, dynring.Scenario{
			Size:      n,
			Landmark:  dynring.NoLandmark,
			Algorithm: "ETUnconscious",
			Starts:    []int{0, n / 2},
			NewAdversary: dynring.RandomActivationFactory(0.6,
				func(int64) dynring.Adversary { return dynring.GreedyBlocking() }),
			Seed:             int64(i) + 3,
			StopWhenExplored: true,
			MaxRounds:        4000 * n,
		})
		if !res.Explored {
			b.Fatal("not explored")
		}
		explored = res.ExploredRound + 1
	}
	b.ReportMetric(float64(explored)/float64(n), "rounds/n")
}

// BenchmarkFigure2 regenerates the tight schedule diagram run.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure2Diagram(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure22 verifies the catch tree exhaustively.
func BenchmarkFigure22(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := catchtree.Verify(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9_IDs measures the ID derivation of Section 3.2.3.
func BenchmarkFigure9_IDs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ids.Interleave(ids.FromRounds(2, 4, 0)) != 48 {
			b.Fatal("wrong ID")
		}
	}
}

// BenchmarkFigure11_Schedule measures direction-schedule evaluation.
func BenchmarkFigure11_Schedule(b *testing.B) {
	sc := ids.NewSchedule(164)
	count := 0
	for i := 0; i < b.N; i++ {
		if sc.Right(i) {
			count++
		}
	}
	_ = count
}

// BenchmarkExtension_Offline runs the offline-optimal baselines.
func BenchmarkExtension_Offline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRows(b, expt.Extensions)
	}
}
