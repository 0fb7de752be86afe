package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dynring"
)

// testNode is one in-process cluster member: a full Manager behind a real
// HTTP listener, so proxy hops and health probes travel the actual wire.
type testNode struct {
	m   *Manager
	srv *http.Server
	url string
}

// startCluster boots n nodes on loopback listeners, each seeded with the
// full peer list, and waits until every node sees every other alive.
func startCluster(t *testing.T, n int, opts func(i int) Options) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		o := Options{Workers: 2, CacheSize: 256}
		if opts != nil {
			o = opts(i)
		}
		// Fast probes so the cluster converges quickly, but a generous
		// timeout: under -race a loaded handler can take longer than one
		// interval, and a timed-out probe would flap the peer to suspect
		// and divert its keys to local execution mid-test.
		// opts may set the other cluster fields (Replicas, Transport, ...).
		o.Cluster.Self, o.Cluster.Peers = urls[i], urls
		o.Cluster.ProbeInterval, o.Cluster.ProbeTimeout = 25*time.Millisecond, 5*time.Second
		m, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: NewHandler(m)}
		go srv.Serve(lns[i])
		nodes[i] = &testNode{m: m, srv: srv, url: urls[i]}
		t.Cleanup(func() {
			srv.Close()
			m.Close()
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for {
			alive := 0
			for _, p := range nd.m.ClusterStatus().Peers {
				if p.State == "alive" {
					alive++
				}
			}
			if alive == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never saw all %d peers alive", nd.url, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// totalExecutions sums the per-node execution counters — the observable
// form of the cluster-wide exactly-once property.
func totalExecutions(nodes []*testNode) uint64 {
	var sum uint64
	for _, nd := range nodes {
		sum += nd.m.Stats().Executions
	}
	return sum
}

// TestClusterExactlyOnce is the tentpole acceptance test in-process: the
// same grid submitted to two different nodes executes each scenario
// exactly once cluster-wide — the first pass is spread over the owners by
// proxying, the second is served entirely from their caches.
func TestClusterExactlyOnce(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	spec := testSpec()

	j0, err := nodes[0].m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j0)
	total := uint64(j0.Total())
	if got := totalExecutions(nodes); got != total {
		t.Fatalf("first submission: %d executions cluster-wide, want %d", got, total)
	}

	// The identical grid through a different coordinator: every row must be
	// served from the owners' caches, zero new executions anywhere.
	j1, err := nodes[1].m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if got := totalExecutions(nodes); got != total {
		t.Fatalf("repeat via second node: %d executions cluster-wide, want %d (no new work)", got, total)
	}
	for i := 0; i < j1.Total(); i++ {
		row, err := j1.WaitRow(context.Background(), i)
		if err != nil || row.Err != nil {
			t.Fatalf("row %d: %v / %v", i, err, row.Err)
		}
		if !row.Cached {
			t.Fatalf("repeat row %d was executed, want cache-served", i)
		}
	}

	// Server-side routing changes where a row runs, never what it returns:
	// both coordinators' rows deep-equal a local sweep's, in grid order.
	sw, err := spec.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{j0, j1} {
		if j.Total() != len(local) {
			t.Fatalf("job %s has %d rows, local sweep %d", j.ID, j.Total(), len(local))
		}
		for i := range local {
			row, err := j.WaitRow(context.Background(), i)
			if err != nil || row.Err != nil {
				t.Fatalf("job %s row %d: %v / %v", j.ID, i, err, row.Err)
			}
			if !reflect.DeepEqual(row.Result, local[i].Result) {
				t.Fatalf("job %s row %d differs from the local sweep:\n%+v\n%+v", j.ID, i, row.Result, local[i].Result)
			}
		}
	}

	// Proxying actually happened: with 3 nodes and a spread grid the first
	// coordinator cannot have owned everything.
	if nodes[0].m.Stats().Proxied == 0 {
		t.Fatal("first coordinator proxied nothing — grid never left the node")
	}
}

// TestClusterOwnerDeathFallsBackLocal: killing a peer mid-membership must
// not fail sweeps — scenarios it owned execute locally on the coordinator
// after the proxy attempt fails.
func TestClusterOwnerDeathFallsBackLocal(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	// Kill node 1 abruptly: no graceful leave, its listener just dies.
	nodes[1].srv.Close()

	spec := testSpec()
	j, err := nodes[0].m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	for i := 0; i < j.Total(); i++ {
		row, err := j.WaitRow(context.Background(), i)
		if err != nil || row.Err != nil {
			t.Fatalf("row %d failed after peer death: %v / %v", i, err, row.Err)
		}
	}
	if got := nodes[0].m.Stats().Executions; got != uint64(j.Total()) {
		t.Fatalf("survivor executed %d of %d scenarios", got, j.Total())
	}
}

// TestRunEndpoint exercises POST /v1/run standalone: first call executes,
// second is cache-served, and a bad spec is a 400.
func TestRunEndpoint(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 64})
	defer m.Close()
	h := NewHandler(m)

	scSpec := dynring.ScenarioSpec{
		Algorithm: "KnownNNoChirality",
		Size:      6,
		Seed:      1,
		Landmark:  0,
		Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.4},
	}
	post := func() dynring.RunResponse {
		t.Helper()
		buf, _ := json.Marshal(dynring.RunRequest{Scenario: scSpec})
		req, rec := newTestRequest(http.MethodPost, "/v1/run", buf)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/run status %d: %s", rec.Code, rec.Body)
		}
		var rr dynring.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	rr1 := post()
	if rr1.Error != "" || rr1.Result == nil || rr1.Fingerprint == "" {
		t.Fatalf("first run: %+v", rr1)
	}
	if rr1.Cached {
		t.Fatal("first run claims cached")
	}
	rr2 := post()
	if !rr2.Cached {
		t.Fatal("second run not cache-served")
	}
	if fmt.Sprint(*rr1.Result) != fmt.Sprint(*rr2.Result) {
		t.Fatal("cached run result differs from executed one")
	}
	if got := m.Stats().Executions; got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}

	// Unknown algorithm: a request-level 400, not a 200-with-error.
	bad, _ := json.Marshal(dynring.RunRequest{Scenario: dynring.ScenarioSpec{Algorithm: "Nope", Size: 6}})
	req, rec := newTestRequest(http.MethodPost, "/v1/run", bad)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad spec status %d, want 400", rec.Code)
	}
}

// TestRunEndpointDeadlineHeader: the service ignores the deadline header
// older coordinators and clients still send on POST /v1/run. Whatever it
// says — malformed, non-positive, already spent or generous — the hop
// answers 200 with the row: executed once, then served from the cache.
func TestRunEndpointDeadlineHeader(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 64})
	defer m.Close()
	h := NewHandler(m)

	scSpec := dynring.ScenarioSpec{
		Algorithm: "KnownNNoChirality",
		Size:      6,
		Seed:      7,
		Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.4},
	}
	body, _ := json.Marshal(dynring.RunRequest{Scenario: scSpec})
	for i, budget := range []string{"1ns", "yesterday", "-5s", "0", "30s", ""} {
		req, rec := newTestRequest(http.MethodPost, "/v1/run", body)
		req.Header.Set("X-Dynring-Deadline", budget)
		h.ServeHTTP(rec, req)
		var rr dynring.RunResponse
		if rec.Code != http.StatusOK {
			t.Fatalf("budget %q: status %d: %s", budget, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Error != "" || rr.Result == nil || rr.Cached != (i > 0) {
			t.Fatalf("budget %q: %+v, want the row (cached: %v)", budget, rr, i > 0)
		}
	}
	if got := m.Stats().Executions; got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
}

// TestWarmStartZeroExecutions: a restarted node with the same -data
// directory serves a previously-run grid entirely from the durable tier.
func TestWarmStartZeroExecutions(t *testing.T) {
	dir := t.TempDir()
	m1 := mustNew(t, Options{Workers: 2, CacheSize: 64, DiskDir: dir})
	j1, err := m1.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if got := m1.Stats().Executions; got != uint64(j1.Total()) {
		t.Fatalf("first process executed %d of %d", got, j1.Total())
	}
	m1.Close() // flushes the write queue — the -drain guarantee

	m2 := mustNew(t, Options{Workers: 2, CacheSize: 64, DiskDir: dir})
	defer m2.Close()
	j2, err := m2.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if got := m2.Stats().Executions; got != 0 {
		t.Fatalf("restarted process executed %d scenarios, want 0 (warm start)", got)
	}
	for i := 0; i < j2.Total(); i++ {
		r1, _ := j1.WaitRow(context.Background(), i)
		r2, _ := j2.WaitRow(context.Background(), i)
		if r2.Err != nil || !r2.Cached {
			t.Fatalf("row %d after restart: err=%v cached=%v", i, r2.Err, r2.Cached)
		}
		if fmt.Sprint(r1.Result) != fmt.Sprint(r2.Result) {
			t.Fatalf("row %d result changed across restart", i)
		}
	}
}

// TestStatszShape pins the /statsz JSON document: the exact key set of the
// top level and of the disk and cluster sub-documents, so dashboards and
// the smoke scripts can rely on the wire shape.
func TestStatszShape(t *testing.T) {
	dir := t.TempDir()
	nodes := startCluster(t, 2, func(i int) Options {
		o := Options{Workers: 2, CacheSize: 64}
		if i == 0 {
			o.DiskDir = dir
		}
		return o
	})
	j, err := nodes[0].m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, err := http.Get(nodes[0].url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"jobs", "active_jobs", "workers", "executions", "proxied",
		"cache", "hit_ratio", "disk", "queue", "cluster",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/statsz missing %q: %v", key, keys(doc))
		}
	}
	var disk map[string]any
	if err := json.Unmarshal(doc["disk"], &disk); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"entries", "bytes", "queue_depth", "hits", "misses", "skipped"} {
		if _, ok := disk[key]; !ok {
			t.Fatalf("/statsz disk missing %q: %v", key, disk)
		}
	}
	var cl struct {
		Enabled bool `json:"enabled"`
		Peers   []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(doc["cluster"], &cl); err != nil {
		t.Fatal(err)
	}
	if !cl.Enabled || len(cl.Peers) != 2 {
		t.Fatalf("/statsz cluster = %+v", cl)
	}
	var queue []dynring.JobQueueStat
	if err := json.Unmarshal(doc["queue"], &queue); err != nil {
		t.Fatalf("queue is not a list: %v", err)
	}

	// Queue depth reflects undispatched work: on a workerless manager the
	// whole grid stays pending.
	idle := mustManager(t, Options{Workers: 1, CacheSize: 0})
	ij, err := idle.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := idle.Stats()
	if len(st.Queue) != 1 || st.Queue[0].ID != ij.ID || st.Queue[0].Pending != ij.Total() {
		t.Fatalf("idle queue = %+v, want [{%s %d}]", st.Queue, ij.ID, ij.Total())
	}
}

// keys lists a JSON document's top-level keys for failure messages.
func keys(doc map[string]json.RawMessage) []string {
	out := make([]string, 0, len(doc))
	for k := range doc {
		out = append(out, k)
	}
	return out
}

// newTestRequest builds an in-memory request/recorder pair.
func newTestRequest(method, path string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(method, path, bytes.NewReader(body)), httptest.NewRecorder()
}
