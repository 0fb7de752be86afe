// Benchmarks for the sweep service's two serving regimes. The interesting
// comparison is CacheHit vs CacheMiss throughput on the same grid — the
// factor the content-addressed cache buys on repeated or overlapping
// submissions. scripts/bench_service.sh runs these and emits
// BENCH_service.json for the perf trajectory.
package service

import (
	"context"
	"testing"

	"dynring"
)

// benchSpec is a 16-scenario grid of cheap runs, so the benchmark measures
// service overhead and cache behaviour rather than one algorithm's tail.
func benchSpec() dynring.SweepSpec {
	return dynring.SweepSpec{
		Base:       dynring.ScenarioSpec{Landmark: 0},
		Algorithms: []string{"KnownNNoChirality", "UnconsciousExploration"},
		Sizes:      []int{6, 8},
		Seeds:      []int64{1, 2, 3, 4},
		Adversaries: []dynring.AdversarySpec{
			{Kind: "random", P: 0.4},
		},
	}
}

// submitAndWait pushes one grid through the manager.
func submitAndWait(b *testing.B, m *Manager, spec dynring.SweepSpec) *Job {
	b.Helper()
	j, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	if st := j.Status(); st.Errors != 0 {
		b.Fatalf("job had %d errors", st.Errors)
	}
	return j
}

// BenchmarkServiceSweep_CacheMiss measures cold-cache throughput: every
// iteration runs the full grid (distinct seeds per iteration keep every
// fingerprint fresh while the cache stays warm-but-useless).
func BenchmarkServiceSweep_CacheMiss(b *testing.B) {
	m := mustNew(b, Options{Workers: 4, CacheSize: 1 << 16})
	defer m.Close()
	spec := benchSpec()
	sw, err := spec.Sweep()
	if err != nil {
		b.Fatal(err)
	}
	grid, err := sw.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := benchSpec()
		fresh.Seeds = []int64{int64(4*i) + 100, int64(4*i) + 101, int64(4*i) + 102, int64(4*i) + 103}
		submitAndWait(b, m, fresh)
	}
	b.ReportMetric(float64(len(grid)), "scenarios/op")
}

// BenchmarkServiceSweep_CacheHit measures warm-cache throughput: the grid
// is primed once, then every iteration is served entirely from the cache.
func BenchmarkServiceSweep_CacheHit(b *testing.B) {
	m := mustNew(b, Options{Workers: 4, CacheSize: 1 << 16})
	defer m.Close()
	spec := benchSpec()
	prime := submitAndWait(b, m, spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAndWait(b, m, spec)
	}
	b.StopTimer()
	if st := m.Stats(); b.N > 0 && st.Cache.Hits < uint64(b.N*prime.Total()) {
		b.Fatalf("cache hits %d below expected %d — benchmark is not measuring hits",
			st.Cache.Hits, b.N*prime.Total())
	}
	b.ReportMetric(float64(prime.Total()), "scenarios/op")
}
