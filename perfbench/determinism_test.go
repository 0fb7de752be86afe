package main

import (
	"context"
	"maps"
	"testing"
)

// countMetrics are the per-layer metrics that must repeat exactly for a
// given seed: they depend on placement and on the inputs, never on timing.
var countMetrics = []string{
	"engine.executions_per_fp",
	"engine.executions.node-a", "engine.executions.node-b", "engine.executions.node-c",
	"route.local_frac", "route.proxied_frac", "route.steals", "route.hedges", "route.fallbacks",
	"hop.run_per_row", "replication.pushes_per_row", "cache.disk_writes_per_row",
}

// tinyRun runs a traced miniature of workload w.
func tinyRun(t *testing.T, w string, seed int64) (result, report) {
	t.Helper()
	res, rep, err := run(context.Background(), options{
		workload: w, seed: seed, seconds: 1, trace: true, workdir: t.TempDir(), tiny: true,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d", w, seed, res.Correct, res.Failed)
	}
	return res, rep
}

func TestSameSeedRepeatsCounts(t *testing.T) {
	for _, w := range []string{"solo-cold", "solo-hot", "trio-replicated"} {
		t.Run(w, func(t *testing.T) {
			a, ra := tinyRun(t, w, 7)
			b, rb := tinyRun(t, w, 7)
			if !maps.Equal(ra.NodeExecs, rb.NodeExecs) {
				t.Errorf("per-node executions differ: %v vs %v", ra.NodeExecs, rb.NodeExecs)
			}
			for _, name := range countMetrics {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs between runs with one seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if got := a.Metrics["engine.executions_per_fp"].Value; got != 1 {
				t.Errorf("engine.executions_per_fp = %v, want exactly 1", got)
			}
			if w == "trio-replicated" {
				if got := a.Metrics["replication.pushes_per_row"].Value; got != 2 {
					t.Errorf("replication.pushes_per_row = %v, want 2 (every fresh row pushed to both replicas)", got)
				}
				if a.Metrics["hop.run_per_row"].Value == 0 {
					t.Error("trio-replicated made no proxy hops")
				}
			}
		})
	}
}

func TestOtherSeedNewFingerprintsSameTotals(t *testing.T) {
	for _, w := range []string{"solo-cold", "solo-hot", "trio-replicated"} {
		t.Run(w, func(t *testing.T) {
			in1, err := makeInputs(workloads[w], 7, 12)
			if err != nil {
				t.Fatal(err)
			}
			in2, err := makeInputs(workloads[w], 8, 12)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, s := range in1.timed {
				for _, fp := range s.fps {
					seen[fp] = true
				}
			}
			for _, s := range in2.timed {
				for _, fp := range s.fps {
					if seen[fp] {
						t.Fatalf("seeds 7 and 8 share fingerprint %s", fp)
					}
				}
			}
			a, ra := tinyRun(t, w, 7)
			b, rb := tinyRun(t, w, 8)
			sum := func(m map[string]uint64) (s uint64) {
				for _, v := range m {
					s += v
				}
				return s
			}
			if sum(ra.NodeExecs) != sum(rb.NodeExecs) || ra.Rows != rb.Rows || ra.Distinct != rb.Distinct {
				t.Errorf("totals differ across seeds: executions %d/%d rows %d/%d distinct %d/%d",
					sum(ra.NodeExecs), sum(rb.NodeExecs), ra.Rows, rb.Rows, ra.Distinct, rb.Distinct)
			}
			if a.Metrics["replication.pushes_per_row"] != b.Metrics["replication.pushes_per_row"] {
				t.Errorf("pushes per row differ across seeds: %v vs %v",
					a.Metrics["replication.pushes_per_row"], b.Metrics["replication.pushes_per_row"])
			}
		})
	}
}
