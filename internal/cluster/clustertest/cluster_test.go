package clustertest

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/service"
)

// grid is a small mixed sweep over the given seeds.
func grid(seeds ...int64) dynring.SweepSpec {
	return dynring.SweepSpec{
		Algorithms:  []string{"KnownNNoChirality", "UnconsciousExploration"},
		Sizes:       []int{6, 8},
		Seeds:       seeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
}

// fingerprints expands a spec to its rows' fingerprints, in grid order.
func fingerprints(t *testing.T, spec dynring.SweepSpec) []string {
	t.Helper()
	scenarios, err := spec.ScenarioList()
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(scenarios))
	for i, sc := range scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	return fps
}

// placementRing rebuilds the cluster's placement ring the way every node
// and routing client does.
func (c *Cluster) placementRing() *cluster.Ring {
	urls := make([]string, c.Size())
	for i := range urls {
		urls[i] = c.Node(i).URL
	}
	return cluster.NewRing(urls, cluster.DefaultVNodes)
}

// waitReplicated blocks until every node's durable tier holds exactly its
// replica share of fps under k-replica placement.
func (c *Cluster) waitReplicated(fps []string, k int) {
	c.t.Helper()
	ring := c.placementRing()
	for i := 0; i < c.Size(); i++ {
		want := 0
		for _, fp := range fps {
			for _, o := range ring.Owners(fp, k) {
				if o == c.Node(i).URL {
					want++
				}
			}
		}
		c.WaitDurable(i, want)
	}
}

// readable counts the fps node i's disk tier serves, whether or not their
// disk writes have finished.
func (c *Cluster) readable(i int, fps []string) int {
	n := 0
	for _, fp := range fps {
		if _, ok := c.Node(i).Manager.DurableEnvelope(fp); ok {
			n++
		}
	}
	return n
}

// waitWritten blocks until every fp's envelope file exists in node i's
// DataDir. A disk tier serves an envelope before its write finishes, so a
// test that removes or truncates envelope files waits for the writes
// first: a write still queued would land after the sabotage.
func (c *Cluster) waitWritten(i int, fps []string) {
	c.t.Helper()
	for _, fp := range fps {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if _, err := os.Stat(EnvelopeFile(c.Node(i).DataDir, fp)); err == nil {
				break
			}
			if time.Now().After(deadline) {
				c.t.Fatalf("clustertest: node %d never wrote the envelope of %s to disk", i, fp)
			}
		}
	}
}

// TestClusterReplicaRetryServesFromReplicas: when a fingerprint's owner
// dies, the serving node's proxy hop fails over to the rest of the replica
// set — which holds the replicated envelope — so a sweep through a third
// node finishes with zero errored rows and zero re-executions, and every
// row whose owner sequence is (dead node, node 0) is counted as served by
// a replica. The second sweep runs on a node that did not coordinate the
// first, so nothing it needs is in its memory tier by accident.
func TestClusterReplicaRetryServesFromReplicas(t *testing.T) {
	c := Start(t, Options{
		Nodes: 3, Replicas: 2, Disk: true,
		// Slow probes keep the victim "alive" in node 2's view right after
		// the crash, so the first hop really goes to the dead owner and the
		// failover — not a routing decision made from a fresh probe — is
		// what serves the row.
		ProbeInterval: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Placement depends on the nodes' ephemeral ports, so pin rows with
	// known owner sequences rather than hope a small grid covers them.
	seeds := append(c.seedsOwnedBy(t, 2, 3, 1, 0), c.seedsOwnedBy(t, 2, 3, 1, 2)...)
	spec := seedSpec(append(seeds, 1, 2, 3, 4, 5, 6))
	fps := fingerprints(t, spec)
	ring := c.placementRing()
	failovers := 0
	for _, fp := range fps {
		if o := ring.Owners(fp, 2); o[0] == c.Node(1).URL && o[1] == c.Node(0).URL {
			failovers++
		}
	}

	runSweep := func(coordinator int) {
		t.Helper()
		j, err := c.Node(coordinator).Manager.Submit(spec, service.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.Errors != 0 {
			t.Fatalf("sweep via node %d had %d errored rows", coordinator, st.Errors)
		}
	}
	runSweep(0)
	c.waitReplicated(fps, 2)
	execBefore := c.TotalExecutions()
	if execBefore != uint64(len(fps)) {
		t.Fatalf("first sweep executed %d scenarios, want %d", execBefore, len(fps))
	}
	hitsBefore := scrapeCounter(t, c, 2, "dynring_cluster_replica_hits_total")

	c.Crash(1)
	runSweep(2)
	if got := c.TotalExecutions(); got != execBefore {
		t.Fatalf("owner death re-executed %d already-replicated scenarios", got-execBefore)
	}
	hits := scrapeCounter(t, c, 2, "dynring_cluster_replica_hits_total") - hitsBefore
	if hits < float64(failovers) {
		t.Fatalf("replica_hits_total rose by %v, want >= %d (rows owned by the dead node with node 0 as replica)", hits, failovers)
	}
}

// TestClusterExactlyOnceUnderKill is satellite 4: with a seeded fault plan
// killing a non-coordinator mid-cluster at full replication, re-running
// the grid yields a byte-identical result stream, zero errored rows, and
// zero new executions cluster-wide (the victim's in-process counter still
// participates in the sum).
func TestClusterExactlyOnceUnderKill(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 3, Disk: true, Seed: 9})
	spec := grid(1, 2, 3)
	fps := fingerprints(t, spec)

	j, err := c.Node(0).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	streamA := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j.ID+"/results")
	c.waitReplicated(fps, 3)
	if got := c.TotalExecutions(); got != uint64(len(fps)) {
		t.Fatalf("first pass executed %d, want %d", got, len(fps))
	}

	victim := 1 + c.Plan.Intn(2) // seeded choice of a non-coordinator
	c.Crash(victim)

	j2, err := c.Node(0).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	streamB := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j2.ID+"/results")
	if bytes.Contains(streamB, []byte(`"error"`)) {
		t.Fatalf("stream after kill carries errored rows:\n%s", streamB)
	}
	if !bytes.Equal(streamA, streamB) {
		t.Fatalf("result streams diverged after kill:\n--- before ---\n%s\n--- after ---\n%s", streamA, streamB)
	}
	if got := c.TotalExecutions(); got != uint64(len(fps)) {
		t.Fatalf("kill caused %d re-executions", got-uint64(len(fps)))
	}
}

// TestClusterExactlyOnceConcurrentCoordinators: both nodes coordinate the
// same grid while node 0 works through a deep backlog on its single
// worker. Every row owned elsewhere must be served by its owner (whose
// singleflight and cache make it run once), however busy that owner is:
// cluster-wide executions equal the distinct fingerprints, no row errors,
// and the two coordinators stream byte-identical results.
func TestClusterExactlyOnceConcurrentCoordinators(t *testing.T) {
	c := Start(t, Options{Nodes: 2, Replicas: 2, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	loadSeeds := make([]int64, 3000)
	for i := range loadSeeds {
		loadSeeds[i] = int64(100000 + i)
	}
	load := dynring.SweepSpec{
		Algorithms:  []string{"KnownNNoChirality"},
		Sizes:       []int{64},
		Seeds:       loadSeeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
	jLoad, err := c.Node(0).Manager.Submit(load, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 now holds a backlog in the thousands. Let ten probe rounds
	// pass so node 1's view of the cluster has caught up with it before
	// the grid arrives.
	time.Sleep(10 * 25 * time.Millisecond)

	spec := grid(seqSeeds(50)...) // 200 rows
	jobs := make([]*service.Job, 2)
	for i := range jobs {
		if jobs[i], err = c.Node(i).Manager.Submit(spec, service.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range append(jobs, jLoad) {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.Errors != 0 {
			t.Fatalf("job %s settled with %d errored rows", j.ID, st.Errors)
		}
	}

	distinct := make(map[string]bool)
	for _, fp := range append(fingerprints(t, load), fingerprints(t, spec)...) {
		distinct[fp] = true
	}
	if got, want := c.TotalExecutions(), uint64(len(distinct)); got != want {
		t.Fatalf("cluster executed %d scenarios for %d distinct fingerprints (%d duplicated)", got, want, got-want)
	}
	streamA := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+jobs[0].ID+"/results")
	streamB := readStream(t, c, c.Node(1).URL+"/v1/sweeps/"+jobs[1].ID+"/results")
	if !bytes.Equal(streamA, streamB) {
		t.Fatalf("coordinators streamed different results:\n--- node 0 ---\n%s\n--- node 1 ---\n%s", streamA, streamB)
	}
}

// TestClusterExactlyOnceAfterOwnerCrash: at full replication with one node
// crashed, a row the dead node owns runs on the first live member of its
// replica set, whichever node coordinates it. Each route walk stops at
// its coordinator's own place in the set, so two coordinators never send
// such a row to each other and both execute it.
func TestClusterExactlyOnceAfterOwnerCrash(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 3, Disk: true})
	c.Crash(2)
	for i := 0; i < 2; i++ {
		c.WaitPeerState(i, c.Node(2).URL, "suspect", "dead")
	}
	c.runOnceOnBoth(t, grid(seqSeeds(50)...))
}

// TestClusterRestartReadmitted: membership is the configured member list,
// so a node that shut down gracefully and came back on its old address is
// readmitted by probes alone, by every peer, even when the first of them
// could not reach it for two seconds after its boot. Peers that disagreed
// about it would disagree on placement and run rows twice.
func TestClusterRestartReadmitted(t *testing.T) {
	const probe = 100 * time.Millisecond
	c := Start(t, Options{Nodes: 3, ProbeInterval: probe})
	n0, n2 := c.Node(0).URL, c.Node(2).URL
	c.Stop(2)
	for i := 0; i < 2; i++ {
		c.WaitPeerState(i, n2, "suspect", "dead")
	}
	c.Plan.Partition(n0, n2)
	c.Restart(2)
	time.Sleep(2 * time.Second)
	c.Plan.Heal(n0, n2)
	healed := time.Now()
	for i := 0; i < 2; i++ {
		c.WaitPeerState(i, n2, "alive")
	}
	if took := time.Since(healed); took > 10*probe {
		t.Fatalf("peers saw the restarted node alive %v after the fault was lifted, want <= %v", took, 10*probe)
	}
	c.runOnceOnBoth(t, grid(seqSeeds(50)...))
}

// seqSeeds returns the seeds 1..n.
func seqSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(1 + i)
	}
	return seeds
}

// runOnceOnBoth submits spec to nodes 0 and 1 at once and checks the
// cluster-wide contract: it adds as many executions as spec has distinct
// fingerprints, no row errors, and both coordinators stream byte-identical
// results.
func (c *Cluster) runOnceOnBoth(t *testing.T, spec dynring.SweepSpec) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	before := c.TotalExecutions()
	jobs := make([]*service.Job, 2)
	for i := range jobs {
		var err error
		if jobs[i], err = c.Node(i).Manager.Submit(spec, service.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.Errors != 0 {
			t.Fatalf("job %s settled with %d errored rows", j.ID, st.Errors)
		}
	}
	distinct := make(map[string]bool)
	for _, fp := range fingerprints(t, spec) {
		distinct[fp] = true
	}
	if got, want := c.TotalExecutions()-before, uint64(len(distinct)); got != want {
		t.Fatalf("cluster executed %d scenarios for %d distinct fingerprints", got, want)
	}
	streamA := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+jobs[0].ID+"/results")
	streamB := readStream(t, c, c.Node(1).URL+"/v1/sweeps/"+jobs[1].ID+"/results")
	if !bytes.Equal(streamA, streamB) {
		t.Fatalf("coordinators streamed different results:\n--- node 0 ---\n%s\n--- node 1 ---\n%s", streamA, streamB)
	}
}

// TestClusterReplicationOnePushPerReplica: on a 3-node cluster with 3
// replicas, every execution makes exactly one /v1/replicate round trip to
// each of its two other replicas — the count perfbench's drain waits for.
func TestClusterReplicationOnePushPerReplica(t *testing.T) {
	c := Start(t, Options{
		Nodes: 3, Replicas: 3, Disk: true,
		AntiEntropyInterval: time.Hour, // replication alone fills the disk tiers
	})
	var pushes atomic.Int64
	c.Plan.OnRequest(func(from, to, path string) {
		if path == "/v1/replicate" {
			pushes.Add(1)
		}
	})
	a, b := grid(1, 2, 3, 4, 5, 6), grid(5, 6, 7, 8, 9, 10)
	c.runOn(t, 0, a)
	c.runOn(t, 1, b)
	fps := append(fingerprints(t, a), fingerprints(t, b)...)
	slices.Sort(fps)
	fps = slices.Compact(fps) // the grids share seeds 5 and 6
	want := 2 * int64(c.TotalExecutions())
	if c.TotalExecutions() != uint64(len(fps)) {
		t.Fatalf("%d executions for %d distinct rows", c.TotalExecutions(), len(fps))
	}
	for start := time.Now(); pushes.Load() < want; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d replication round trips for %d executions, want %d", pushes.Load(), want/2, want)
		}
	}
	c.waitReplicated(fps, 3)
	if got := pushes.Load(); got != want {
		t.Fatalf("%d replication round trips for %d executions, want %d", got, want/2, want)
	}
}

// TestClusterAntiEntropyRepairsCorruptEnvelope: a corrupt envelope is
// repaired byte-identically from a healthy peer, and a node pulling an
// envelope whose only other copy is corrupt gets nothing: the serving
// side validates what it ships, so corruption never propagates.
func TestClusterAntiEntropyRepairsCorruptEnvelope(t *testing.T) {
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true,
		AntiEntropyInterval: time.Hour, // tests drive passes explicitly
	})
	spec := grid(1, 2)
	fps := fingerprints(t, spec)
	j, err := c.Node(0).Manager.Submit(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// k = 2 on 2 nodes: both tiers hold every envelope, and the test
	// sabotages their files.
	c.waitReplicated(fps, 2)
	c.waitWritten(0, fps)
	c.waitWritten(1, fps)
	execBefore := c.TotalExecutions()

	// Corrupt one envelope on node 0 and repair it from node 1.
	fp := fps[0]
	path0 := EnvelopeFile(c.Node(0).DataDir, fp)
	path1 := EnvelopeFile(c.Node(1).DataDir, fp)
	healthy, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path0, int64(len(healthy)/2)); err != nil {
		t.Fatal(err)
	}
	if repairs := c.Node(0).Manager.AntiEntropyNow(); repairs < 1 {
		t.Fatalf("anti-entropy pass repaired %d envelopes, want >= 1", repairs)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := os.ReadFile(path0)
		if err == nil && bytes.Equal(got, healthy) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corrupt envelope was not rewritten from the healthy peer (err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, err := os.ReadFile(path1); err != nil || !bytes.Equal(got, healthy) {
		t.Fatalf("healthy peer's envelope changed during repair (err %v)", err)
	}
	if got := c.TotalExecutions(); got != execBefore {
		t.Fatal("repair re-executed instead of copying")
	}

	// Corruption never propagates: node 1 lacks fp2 and node 0's copy is
	// corrupt. Node 1 asks node 0 for it and gets nothing.
	fp2 := fps[1]
	if fp2 == fp {
		t.Fatal("test needs two distinct fingerprints")
	}
	if err := os.Remove(EnvelopeFile(c.Node(1).DataDir, fp2)); err != nil {
		t.Fatal(err)
	}
	// A durable read on the missing file evicts it from node 1's index.
	if _, ok := c.Node(1).Manager.DurableEnvelope(fp2); ok {
		t.Fatal("node 1 still serves the deleted envelope")
	}
	if err := os.Truncate(EnvelopeFile(c.Node(0).DataDir, fp2), 3); err != nil {
		t.Fatal(err)
	}
	var asked atomic.Int64
	c.Plan.OnRequest(func(from, to, path string) {
		if from == c.Node(1).URL && to == c.Node(0).URL && path == "/v1/antientropy/entry" {
			asked.Add(1)
		}
	})
	if repairs := c.Node(1).Manager.AntiEntropyNow(); repairs != 0 {
		t.Fatalf("pulling from a corrupt copy repaired %d envelopes, want 0", repairs)
	}
	c.Plan.OnRequest(nil)
	if got := asked.Load(); got != 1 {
		t.Fatalf("node 1 requested %d envelopes from node 0, want 1 (the one it lacks)", got)
	}
	if _, err := os.Stat(EnvelopeFile(c.Node(1).DataDir, fp2)); !os.IsNotExist(err) {
		t.Fatalf("corrupt envelope was propagated to the peer (stat err %v)", err)
	}
	if _, ok := c.Node(1).Manager.DurableEnvelope(fp2); ok {
		t.Fatal("corrupt envelope reached node 1's durable tier")
	}
}

// TestClusterAntiEntropyRestoresVanishedEnvelope: an envelope file removed
// from under a node's disk tier is pulled back from a peer by one pass,
// and the next pass finds nothing to repair.
func TestClusterAntiEntropyRestoresVanishedEnvelope(t *testing.T) {
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true,
		AntiEntropyInterval: time.Hour, // the test drives the passes
	})
	spec := grid(1)
	fps := fingerprints(t, spec)
	c.runOn(t, 0, spec)
	c.WaitDurable(1, len(fps))
	c.waitWritten(0, fps)
	path := EnvelopeFile(c.Node(0).DataDir, fps[0])
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if repairs := c.Node(0).Manager.AntiEntropyNow(); repairs != 1 {
		t.Fatalf("first pass repaired %d envelopes, want 1", repairs)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pulled envelope was never written back to disk")
		}
	}
	if repairs := c.Node(0).Manager.AntiEntropyNow(); repairs != 0 {
		t.Fatalf("second pass repaired %d envelopes, want 0", repairs)
	}
}

// TestClusterAntiEntropyRepairsRestartedReplica: a replica that was down
// while its rows ran pulls them from its peers as soon as it restarts,
// whether or not any peer saw it dead, so the owner's later crash
// re-executes nothing. Node 1 is the replica of 40 fresh rows owned by
// node 2; it is crashed while node 0 coordinates them and restarted after.
// Then node 2 crashes and node 3 sends the grid again. No peer pushes the
// restarted replica anything: it repairs itself, fetching each missing
// envelope exactly once — a peer lists only envelopes it serves, queued
// disk writes included, and an envelope adopted from the first peer is
// readable before the pull from the next one.
func TestClusterAntiEntropyRepairsRestartedReplica(t *testing.T) {
	cases := []struct {
		name  string
		probe time.Duration
		dead  bool // peers see node 1 dead before it restarts
	}{
		{name: "peers saw it dead", probe: 100 * time.Millisecond, dead: true},
		// DeadAfter is 3: a peer sees node 1 dead two probe intervals after
		// it first sees it suspect. With 1s probes that leaves the grid
		// about a second to run under -race before the restart.
		{name: "peers saw it only suspect", probe: time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Start(t, Options{
				Nodes: 4, Replicas: 2, Disk: true,
				ProbeInterval:       tc.probe,
				AntiEntropyInterval: time.Hour, // no tick: only kicks repair
			})
			n1 := c.Node(1).URL
			spec := seedSpec(c.seedsOwnedBy(t, 2, 40, 2, 1))
			fps := fingerprints(t, spec)

			// Record whether any peer ever reports node 1 dead.
			var sawDead atomic.Bool
			stop := make(chan struct{})
			var watch sync.WaitGroup
			watch.Add(1)
			go func() {
				defer watch.Done()
				for {
					for _, i := range []int{0, 2, 3} {
						for _, p := range c.Node(i).Manager.ClusterStatus().Peers {
							if p.URL == n1 && p.State == "dead" {
								sawDead.Store(true)
							}
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
			}()

			// Once every peer sees node 1 suspect, the owner's pushes skip
			// it: none is queued that could land after the restart.
			c.Crash(1)
			for _, i := range []int{0, 2, 3} {
				c.WaitPeerState(i, n1, "suspect", "dead")
			}
			c.runOn(t, 0, spec)
			if tc.dead {
				for _, i := range []int{0, 2, 3} {
					c.WaitPeerState(i, n1, "dead")
				}
			}
			var pushes, fetches atomic.Int64
			c.Plan.OnRequest(func(from, to, path string) {
				if to == n1 && path == "/v1/replicate" {
					pushes.Add(1)
				}
				if from == n1 && path == "/v1/antientropy/entry" {
					fetches.Add(1)
				}
			})
			restarted := time.Now()
			c.Restart(1)
			for c.readable(1, fps) < len(fps) {
				if time.Since(restarted) > 10*tc.probe {
					t.Fatalf("restarted replica holds %d/%d envelopes %v after its restart", c.readable(1, fps), len(fps), 10*tc.probe)
				}
				time.Sleep(5 * time.Millisecond)
			}
			repaired := time.Since(restarted)
			// Every peer routes to node 1 again before the owner crashes.
			c.WaitAlive()
			close(stop)
			watch.Wait()
			if got := sawDead.Load(); got != tc.dead {
				t.Fatalf("a peer saw node 1 dead: %v, want %v", got, tc.dead)
			}

			c.Crash(2)
			c.Plan.OnRequest(nil)
			if got := pushes.Load(); got != 0 {
				t.Fatalf("%d POST /v1/replicate requests reached the restarted replica, want 0", got)
			}
			t.Logf("restarted replica held %d/%d envelopes after %v, with %d entry fetches", len(fps), len(fps), repaired, fetches.Load())
			if got := fetches.Load(); got != int64(len(fps)) {
				t.Fatalf("the restarted replica made %d entry fetches to repair %d gaps, want %d", got, len(fps), len(fps))
			}
			before := c.TotalExecutions()
			c.runOn(t, 3, spec)
			if got := c.TotalExecutions() - before; got != 0 {
				t.Fatalf("the repeat after the owner's crash ran %d re-executions, want 0", got)
			}
		})
	}
}

// TestClusterFlapDoesNotKickAntiEntropy pins the kick rule at cluster
// level: a node pulls from each peer once when it first sees it alive, an
// alive→suspect→alive flap kicks nothing, and a real dead→alive recovery
// kicks exactly once more. A kick is observable as a key listing fetch.
func TestClusterFlapDoesNotKickAntiEntropy(t *testing.T) {
	// The watcher is on the plan before boot, so the boot kick counts.
	// Node URLs are known only after Start: count listings per sender and
	// target, and read node 0's fetches from node 1 out of them.
	plan := NewFaultPlan(0)
	var mu sync.Mutex
	listings := make(map[[2]string]int)
	plan.OnRequest(func(from, to, path string) {
		if path == "/v1/antientropy/keys" {
			mu.Lock()
			listings[[2]string{from, to}]++
			mu.Unlock()
		}
	})
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true, Plan: plan,
		ProbeInterval:       50 * time.Millisecond,
		AntiEntropyInterval: time.Hour, // only kicks may fetch keys
	})
	n0, n1 := c.Node(0).URL, c.Node(1).URL
	kicks := func() int {
		mu.Lock()
		defer mu.Unlock()
		return listings[[2]string{n0, n1}]
	}
	waitKicks := func(want int, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); kicks() < want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d kicks, want %d", what, kicks(), want)
			}
		}
		time.Sleep(200 * time.Millisecond)
		if got := kicks(); got != want {
			t.Fatalf("%s: %d kicks, want exactly %d", what, got, want)
		}
	}
	waitKicks(1, "boot")

	// Three flaps: each partition window spans at least one probe but
	// far fewer than DeadAfter consecutive failures.
	for i := 0; i < 3; i++ {
		c.Plan.Partition(n0, n1)
		time.Sleep(60 * time.Millisecond)
		c.Plan.Heal(n0, n1)
		c.WaitAlive()
	}
	time.Sleep(200 * time.Millisecond)
	if got := kicks(); got != 1 {
		t.Fatalf("suspect flaps fired %d kicks, want 0", got-1)
	}

	// A real death and recovery fires exactly one more.
	c.Plan.Partition(n0, n1)
	c.WaitPeerState(0, n1, "dead")
	c.Plan.Heal(n0, n1)
	c.WaitPeerState(0, n1, "alive")
	waitKicks(2, "recovery")
}

// TestClusterAntiEntropyRaceHammer runs reconciliation passes concurrently
// with live sweeps on both nodes — the service-level companion to the disk
// tier's Put/Get/Close hammer, meaningful under -race.
func TestClusterAntiEntropyRaceHammer(t *testing.T) {
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true,
		AntiEntropyInterval: time.Hour,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Node(i).Manager.AntiEntropyNow()
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for round := 0; round < 3; round++ {
		j, err := c.Node(round%2).Manager.Submit(grid(int64(100+round)), service.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// readStream fetches one NDJSON result stream through the plan transport.
func readStream(t *testing.T, c *Cluster, url string) []byte {
	t.Helper()
	httpc := &http.Client{Transport: c.Plan.Transport("client")}
	resp, err := httpc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// scrapeCounter reads one un-labelled counter's value from a node's
// /metrics page.
func scrapeCounter(t *testing.T, c *Cluster, i int, family string) float64 {
	t.Helper()
	body := readStream(t, c, c.Node(i).URL+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, family) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("family %s absent from node %d's /metrics", family, i)
	return 0
}
