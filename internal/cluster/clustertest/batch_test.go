package clustertest

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
	"dynring/internal/service"
)

// costlySpec is the single-alg sweep over seeds whose rows cost tens of
// milliseconds each: LandmarkNoChirality under the random adversary runs
// tens of thousands of rounds on a 48-node ring.
func costlySpec(seeds []int64) dynring.SweepSpec {
	return dynring.SweepSpec{
		Algorithms:  []string{"LandmarkNoChirality"},
		Sizes:       []int{48},
		Seeds:       seeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.5}},
	}
}

// runOn submits spec to node i and waits for it, failing on errored rows.
func (c *Cluster) runOn(t *testing.T, i int, spec dynring.SweepSpec) *service.Job {
	t.Helper()
	j, err := c.Node(i).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != "done" || st.Errors != 0 {
		t.Fatalf("sweep via node %d: state %s, %d errored rows", i, st.State, st.Errors)
	}
	return j
}

// TestClusterProxyFallbacksCountOnlyLocalRuns: the fallback counter counts
// rows that ran locally because every routable target failed, never rows
// a replica served after the owner's hop failed.
func TestClusterProxyFallbacksCountOnlyLocalRuns(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 2})
	n0, n1 := c.Node(0), c.Node(1)
	seeds := c.seedsOwnedBy(t, 2, 8, 1, 2)
	failover, local := seedSpec(seeds[:4]), seedSpec(seeds[4:])

	// The owner drops its /v1/run while the replica serves: every row is a
	// replica hit, none is a fallback.
	c.Plan.Drop(func(from, to, path string) bool { return to == n1.URL && path == "/v1/run" })
	c.runOn(t, 0, failover)
	if got := scrapeCounter(t, c, 0, "dynring_cluster_proxy_fallbacks_total"); got != 0 {
		t.Fatalf("proxy_fallbacks_total = %v after replica failover, want 0", got)
	}
	if got := scrapeCounter(t, c, 0, "dynring_cluster_replica_hits_total"); got != 4 {
		t.Fatalf("replica_hits_total = %v, want 4 (every row served by the replica)", got)
	}

	// Every target drops the coordinator's /v1/run, slowly enough that all
	// rows are released before the first failure: every row falls back.
	c.WaitAlive()
	execBefore := n0.Manager.Stats().Executions
	c.Plan.SlowProxy(100 * time.Millisecond)
	c.Plan.Drop(func(from, to, path string) bool { return from == n0.URL && path == "/v1/run" })
	c.runOn(t, 0, local)
	if got := scrapeCounter(t, c, 0, "dynring_cluster_proxy_fallbacks_total"); got != 4 {
		t.Fatalf("proxy_fallbacks_total = %v with every target down, want 4", got)
	}
	if got := n0.Manager.Stats().Executions - execBefore; got != 4 {
		t.Fatalf("coordinator executed %d rows locally, want 4", got)
	}
}

// TestClusterFailoverSkipsUnroutableReplica: failover reads peer health
// again at each step. The owner's batches hang and then fail; while they
// hang, the coordinator loses its link to the only replica, which goes
// suspect. When the owner's batches fail, the replica gets no /v1/run:
// every row runs on the coordinator as a counted fallback.
func TestClusterFailoverSkipsUnroutableReplica(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 2})
	n0, n1, n2 := c.Node(0), c.Node(1), c.Node(2)
	spec := seedSpec(c.seedsOwnedBy(t, 2, 4, 1, 2))

	// The first row rides a batch of its own and the other three one
	// more: once both reach the owner, cut the coordinator off the
	// replica.
	var toOwner, toReplica atomic.Int64
	var cut atomic.Bool
	c.Plan.OnRequest(func(from, to, path string) {
		if from != n0.URL || path != "/v1/run" {
			return
		}
		switch to {
		case n1.URL:
			if toOwner.Add(1) == 2 {
				cut.Store(true)
			}
		case n2.URL:
			toReplica.Add(1)
		}
	})
	c.Plan.SlowNode(n1.URL, 2*time.Second)
	c.Plan.Drop(func(from, to, path string) bool {
		return (to == n1.URL && path == "/v1/run") || (cut.Load() && from == n0.URL && to == n2.URL)
	})

	j, err := n0.Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the cut can make the replica suspect.
	c.WaitPeerState(0, n2.URL, "suspect", "dead")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Lift the delay for the replication pushes the fallbacks queued.
	c.Plan.SlowNode(n1.URL, 0)
	c.Plan.OnRequest(nil)
	if st := j.Status(); st.State != "done" || st.Errors != 0 {
		t.Fatalf("sweep %s with %d errored rows, want done with 0", st.State, st.Errors)
	}
	if got := toReplica.Load(); got != 0 {
		t.Fatalf("coordinator sent %d POST /v1/run to the unroutable replica, want 0", got)
	}
	if got := scrapeCounter(t, c, 0, "dynring_cluster_proxy_fallbacks_total"); got != 4 {
		t.Fatalf("proxy_fallbacks_total = %v, want 4 (every row ran on the coordinator)", got)
	}
}

// TestClusterBatchOwnerDiesMidBatch: the owner dies while a batch is
// streaming, after some of its rows have settled. The remainder fails
// over to the replica: every row settles exactly once, none errors, and
// the result stream is byte-identical to a fault-free run's.
func TestClusterBatchOwnerDiesMidBatch(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 2})
	spec := costlySpec(c.seedsOwnedByIn(t, costlySpec, 2, 8, 1, 2))

	j, err := c.Node(0).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The first row rides a batch of its own; the rest ride one batch
	// sent once the job's last row is released. Two settled rows mean
	// that second batch is streaming.
	deadline := time.Now().Add(60 * time.Second)
	for j.Status().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no rows settled before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	c.Crash(1)
	settledAtKill := j.Status().Completed
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != "done" || st.Errors != 0 {
		t.Fatalf("state %s with %d errored rows after the owner died", st.State, st.Errors)
	}
	if settledAtKill == st.Total {
		t.Skip("every row settled before the kill landed; nothing failed over")
	}
	if got := scrapeCounter(t, c, 0, "dynring_cluster_replica_hits_total"); got < 1 {
		t.Fatalf("replica_hits_total = %v, want the remainder served by the replica", got)
	}
	// Exactly one coordinator span per row: each row was adopted once.
	tr, ok := c.Node(0).Manager.Trace(j.ID)
	if !ok {
		t.Fatal("no trace")
	}
	own := make(map[int]int)
	for _, s := range tr.Spans {
		if s.Node == c.Node(0).URL {
			own[s.Index]++
		}
	}
	for i := 0; i < st.Total; i++ {
		if own[i] != 1 {
			t.Fatalf("row %d settled %d times on the coordinator", i, own[i])
		}
	}

	// Fault-free reference: the same grid on a standalone node.
	ref, err := service.New(service.Options{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	srv := httptest.NewServer(service.NewHandler(ref))
	defer srv.Close()
	jr, err := ref.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := readStream(t, c, srv.URL+"/v1/sweeps/"+jr.ID+"/results")
	got := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j.ID+"/results")
	if !bytes.Equal(got, want) {
		t.Fatalf("stream after the owner died differs from a fault-free run:\n%s\nvs\n%s", got, want)
	}
}

// TestClusterBatchesHopsPerOwner: a coordinator carries its routed rows to
// each owner in two batches — the first row, then the rest once the job
// has released its last row — not one POST /v1/run per row. The count
// depends on placement alone, so it is exact on any machine, and a slow
// link does not change it.
func TestClusterBatchesHopsPerOwner(t *testing.T) {
	for _, slow := range []time.Duration{0, 50 * time.Millisecond} {
		c := Start(t, Options{Nodes: 3})
		n0 := c.Node(0)
		c.Plan.SlowProxy(slow)
		var runs atomic.Int64
		c.Plan.OnRequest(func(from, to, path string) {
			if from == n0.URL && path == "/v1/run" {
				runs.Add(1)
			}
		})
		seeds := make([]int64, 24)
		for i := range seeds {
			seeds[i] = int64(1 + i)
		}
		spec := grid(seeds...) // 96 rows
		perOwner := map[string]int{}
		ring := c.placementRing()
		for _, fp := range fingerprints(t, spec) {
			if o := ring.Owners(fp, 1)[0]; o != n0.URL {
				perOwner[o]++
			}
		}
		want, routed := 0, 0
		for _, k := range perOwner {
			want += min(k, 2)
			routed += k
		}
		c.runOn(t, 0, spec)
		c.Plan.OnRequest(nil)
		if got := runs.Load(); got != int64(want) {
			t.Fatalf("link delay %v: %d POST /v1/run for %d routed rows to %d owners, want %d",
				slow, got, routed, len(perOwner), want)
		}
	}
}

// TestClusterBatchKeepsOwnerParallelism: an owner runs the rows of one
// batch on as many goroutines as it has workers, so a batch of costly
// rows keeps the parallelism per-row hops had: some of the owner's spans
// overlap in time.
func TestClusterBatchKeepsOwnerParallelism(t *testing.T) {
	c := Start(t, Options{Nodes: 2})
	spec := costlySpec(c.seedsOwnedByIn(t, costlySpec, 1, 8, 1))
	start := time.Now()
	j := c.runOn(t, 0, spec)
	t.Logf("%d costly rows owned by the peer took %v", j.Total(), time.Since(start))
	tr, ok := c.Node(0).Manager.Trace(j.ID)
	if !ok {
		t.Fatal("no trace")
	}
	var owner []dynring.TraceSpan
	for _, s := range tr.Spans {
		if s.Node == c.Node(1).URL && s.Kind == "executed" {
			owner = append(owner, s)
		}
	}
	if len(owner) != j.Total() {
		t.Fatalf("%d owner spans for %d rows", len(owner), j.Total())
	}
	for a := range owner {
		for b := range a {
			if owner[a].StartedAt.Before(owner[b].FinishedAt) && owner[b].StartedAt.Before(owner[a].FinishedAt) {
				return
			}
		}
	}
	t.Fatal("the owner ran the batch's rows one at a time")
}
