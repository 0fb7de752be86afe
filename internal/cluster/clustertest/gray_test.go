package clustertest

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
	"dynring/internal/service"
)

// seedsOwnedBy scans single-seed grids until want seeds are found whose
// fingerprint's replica set starts with the given owner sequence (by node
// index), so a test can build a spec whose every row takes a known route.
func (c *Cluster) seedsOwnedBy(t *testing.T, k int, want int, owners ...int) []int64 {
	t.Helper()
	return c.seedsOwnedByIn(t, seedSpec, k, want, owners...)
}

// seedsOwnedByIn is seedsOwnedBy for the rows of spec(seeds), which must
// have one row per seed.
func (c *Cluster) seedsOwnedByIn(t *testing.T, spec func([]int64) dynring.SweepSpec, k int, want int, owners ...int) []int64 {
	t.Helper()
	ring := c.placementRing()
	var seeds []int64
	for s := int64(9000); s < 21000 && len(seeds) < want; s++ {
		got := ring.Owners(fingerprints(t, spec([]int64{s}))[0], k)
		if len(got) < len(owners) {
			continue
		}
		match := true
		for i, o := range owners {
			if got[i] != c.Node(o).URL {
				match = false
				break
			}
		}
		if match {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) < want {
		t.Fatalf("found only %d/%d seeds with owner sequence %v", len(seeds), want, owners)
	}
	return seeds
}

// seedSpec is the single-alg single-size sweep over the given seeds that
// seedsOwnedBy scanned with.
func seedSpec(seeds []int64) dynring.SweepSpec {
	return dynring.SweepSpec{
		Algorithms:  []string{"KnownNNoChirality"},
		Sizes:       []int{8},
		Seeds:       seeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
}

// TestGrayFailureSlowOwnerFailsOver: a slow-but-alive owner (500ms
// transport delay — it drops nothing) must not stall a sweep. With
// ProxyTimeout at 250ms the coordinator's
// batch to the owner times out, or the owner's probes do and routing
// skips it, and each row is served by its second replica — so the sweep
// finishes in about one proxy timeout, with zero errored rows,
// cluster-wide executions equal to the grid size (exactly-once survives
// the failover), no execution on the slow owner, every row counted as a
// replica hit, and a result stream byte-identical to the fault-free
// rerun.
func TestGrayFailureSlowOwnerFailsOver(t *testing.T) {
	c := Start(t, Options{
		Nodes: 3, Replicas: 2,
		// Half the owner's delay: the hop timeout, or the probe timeout it
		// caps, is what rescues the rows.
		ProxyTimeout: 250 * time.Millisecond,
	})
	// Every row owned by node 1 with node 2 as the surviving replica;
	// node 0 coordinates and holds no replica of them.
	seeds := c.seedsOwnedBy(t, 2, 3, 1, 2)
	spec := seedSpec(seeds)
	fps := fingerprints(t, spec)

	c.Plan.SlowNode(c.Node(1).URL, 500*time.Millisecond)
	start := time.Now()
	j, err := c.Node(0).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("sweep did not settle: %v", err)
	}
	elapsed := time.Since(start)
	st := j.Status()
	if st.State != "done" {
		t.Fatalf("sweep state %q, want done", st.State)
	}
	if st.Errors != 0 {
		t.Fatalf("sweep finished with %d errored rows", st.Errors)
	}
	// Sanity on the mechanism: the whole sweep finished in a few proxy
	// timeouts, far under the 500ms-per-row a serial wait on the slow
	// owner would cost.
	if elapsed >= time.Duration(len(fps))*500*time.Millisecond {
		t.Fatalf("sweep took %v — rows waited out the slow owner instead of failing over", elapsed)
	}
	if got := c.TotalExecutions(); got != uint64(len(fps)) {
		t.Fatalf("cluster executed %d scenarios, want %d (failover must stay exactly-once)", got, len(fps))
	}
	// The timed-out batches never reached the slow owner.
	if got := c.Node(1).Manager.Stats().Executions; got != 0 {
		t.Fatalf("slow owner executed %d scenarios; timed-out hops must never be delivered", got)
	}
	if hits := scrapeCounter(t, c, 0, "dynring_cluster_replica_hits_total"); hits != float64(len(fps)) {
		t.Fatalf("replica_hits_total = %v, want %d (every row served by its replica)", hits, len(fps))
	}

	// Fault-free rerun: byte-identical stream, zero new executions (every
	// adopted result is in the coordinator's cache).
	stream1 := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j.ID+"/results")
	c.Plan.SlowNode(c.Node(1).URL, 0)
	execBefore := c.TotalExecutions()
	j2, err := c.Node(0).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalExecutions(); got != execBefore {
		t.Fatalf("fault-free rerun executed %d new scenarios, want 0", got-execBefore)
	}
	stream2 := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j2.ID+"/results")
	if !bytes.Equal(stream1, stream2) {
		t.Fatalf("failed-over stream differs from fault-free stream:\n%s\nvs\n%s", stream1, stream2)
	}
}

// TestGrayFailureSlowPeerDemotedAndRecovers: a gray peer — alive, but
// answering probes more slowly than the proxy timeout that caps every
// probe — fails its probes on every observer and goes suspect, then dead.
// Routing serves its fingerprints from the next replica without a single
// errored row or an execution on the gray node. Lifting the fault lets the
// next timely probe restore alive.
func TestGrayFailureSlowPeerDemotedAndRecovers(t *testing.T) {
	c := Start(t, Options{
		Nodes: 3, Replicas: 2,
		// The probe timeout is capped at ProxyTimeout: a 250ms answer
		// against a 100ms budget is a failed probe.
		ProxyTimeout: 100 * time.Millisecond,
	})
	c.Plan.SlowNode(c.Node(1).URL, 250*time.Millisecond)
	c.WaitPeerState(0, c.Node(1).URL, "dead")

	// Rows owned by the dead node: routing skips it for their replica (or
	// local fallback) immediately — no errors, no executions on the gray
	// node, exactly-once intact.
	seeds := c.seedsOwnedBy(t, 2, 2, 1)
	j, err := c.Node(0).Manager.Submit(seedSpec(seeds), service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Errors != 0 {
		t.Fatalf("sweep around slow owner had %d errored rows", st.Errors)
	}
	if got := c.Node(1).Manager.Stats().Executions; got != 0 {
		t.Fatalf("slow owner executed %d scenarios, want 0 (routing must skip it)", got)
	}
	if got := c.TotalExecutions(); got != uint64(len(seeds)) {
		t.Fatalf("cluster executed %d scenarios, want %d", got, len(seeds))
	}

	// Recovery: fast probes again; the first one returns the peer to
	// alive.
	c.Plan.SlowNode(c.Node(1).URL, 0)
	c.WaitPeerState(0, c.Node(1).URL, "alive")
}

// TestGrayFailureReplicationSkipsDegradedPeer: replication pushes consult
// routability, so they skip a slow replica. With the coordinator's probes
// of a slow replica timing out (it is dead to the coordinator), a sweep of
// rows the coordinator owns makes zero /v1/replicate requests to that
// replica: pushes drain serially, so each one waiting out the proxy
// timeout on the gray peer would fill the bounded push queue and stall
// every further execution behind it. The replica pulls the missed
// envelopes itself once it sees the coordinator alive again.
func TestGrayFailureReplicationSkipsDegradedPeer(t *testing.T) {
	c := Start(t, Options{
		Nodes: 3, Replicas: 2, Disk: true,
		// The probe timeout is capped at ProxyTimeout: 250ms probes
		// against a 100ms budget fail, and the replica goes dead for as
		// long as the fault lasts.
		ProxyTimeout:        100 * time.Millisecond,
		AntiEntropyInterval: time.Hour, // the test drives the repair pass
	})
	n0, n1 := c.Node(0), c.Node(1)
	// More rows than the 256-slot push queue holds: if pushes waited on
	// the slow replica, the queue would fill and stall executions.
	const rows, queueDepth = 320, 256
	seeds := c.seedsOwnedBy(t, 2, rows, 0, 1)
	spec := seedSpec(seeds)

	c.Plan.SlowNode(n1.URL, 250*time.Millisecond)
	c.WaitPeerState(0, n1.URL, "dead")
	var pushes atomic.Int64
	c.Plan.OnRequest(func(from, to, path string) {
		if from == n0.URL && to == n1.URL && path == "/v1/replicate" {
			pushes.Add(1)
		}
	})

	start := time.Now()
	j, err := n0.Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if st := j.Status(); st.Errors != 0 {
		t.Fatalf("sweep had %d errored rows", st.Errors)
	}
	c.Plan.OnRequest(nil)
	if got := pushes.Load(); got != 0 {
		t.Fatalf("coordinator sent %d replication pushes to the slow replica, want 0", got)
	}
	// Half of what the stall would cost: every row past the queue's
	// capacity waiting out one proxy timeout.
	if stall := time.Duration(rows-queueDepth) * 100 * time.Millisecond; elapsed >= stall/2 {
		t.Fatalf("sweep took %v — executions waited on pushes to the slow replica (stall bound %v)", elapsed, stall)
	}
	if got := c.TotalExecutions(); got != uint64(rows) {
		t.Fatalf("cluster executed %d scenarios, want %d", got, rows)
	}

	// Recovery: the fault slows both directions, so the replica saw the
	// coordinator dead too. Its first good probe back fires its own kick,
	// and that one pull lands every skipped envelope; no pass is driven.
	c.WaitPeerState(1, n0.URL, "dead")
	c.Plan.SlowNode(n1.URL, 0)
	deadline := time.Now().Add(10 * time.Second)
	for len(n1.Manager.DurableKeys()) < rows {
		if time.Now().After(deadline) {
			t.Fatalf("replica holds %d/%d envelopes 10s after recovery", len(n1.Manager.DurableKeys()), rows)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
