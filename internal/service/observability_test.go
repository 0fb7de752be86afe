package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
)

// scrapeMetric fetches /metrics from url and returns the summed value of
// every sample line for the named family (labelled series included).
func scrapeMetric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if line != name && !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s absent from %s/metrics", name, url)
	}
	return sum
}

// waitRemote polls a sweep over the wire until it settles.
func waitRemote(t *testing.T, c *dynring.Client, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		st, err := c.SweepStatus(ctx, id)
		if err != nil {
			t.Fatalf("sweep %s status: %v", id, err)
		}
		if st.Done() {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("sweep %s never settled", id)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestClusterMetricsExactlyOnce is the /metrics form of the acceptance
// gate: after one sweep through a 3-node cluster, the per-node
// dynring_service_executions_total counters sum to exactly the grid size.
func TestClusterMetricsExactlyOnce(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	j, err := nodes[0].m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	var sum float64
	for _, nd := range nodes {
		sum += scrapeMetric(t, nd.url, "dynring_service_executions_total")
	}
	if want := float64(j.Total()); sum != want {
		t.Fatalf("executions_total summed across peers = %v, want %v", sum, want)
	}

	// The engine counters prove RunStats flowed from internal/sim through
	// the runner into service metrics: every executed round is accounted
	// somewhere cluster-wide.
	var rounds float64
	for _, nd := range nodes {
		rounds += scrapeMetric(t, nd.url, "dynring_engine_rounds_stepped_total")
		rounds += scrapeMetric(t, nd.url, "dynring_engine_rounds_leapt_total")
	}
	if rounds == 0 {
		t.Fatal("engine round counters all zero after a full sweep")
	}

	// Cluster families exist on a cluster node and the proxy counter agrees
	// with /statsz.
	proxied := scrapeMetric(t, nodes[0].url, "dynring_cluster_proxied_total")
	if got := float64(nodes[0].m.Stats().Proxied); proxied != got {
		t.Fatalf("proxied_total = %v, /statsz proxied = %v", proxied, got)
	}
	if proxied == 0 {
		t.Fatal("coordinator proxied nothing — grid never left the node")
	}
	if alive := scrapeMetric(t, nodes[0].url, "dynring_cluster_peers"); alive != 3 {
		t.Fatalf("peer-state gauges sum to %v, want 3", alive)
	}
}

// TestClusterTraceSpansTwoNodes is the tracing acceptance gate: a proxied
// sweep submitted over HTTP yields one trace whose spans name at least two
// distinct nodes, all under the trace ID echoed at submission.
func TestClusterTraceSpansTwoNodes(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	c := dynring.NewClient(nodes[0].url)

	st, err := c.SubmitSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" {
		t.Fatal("submission response carries no trace ID")
	}
	waitRemote(t, c, st.ID)

	tr, err := c.SweepTrace(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != st.TraceID {
		t.Fatalf("trace ID %q != submitted %q", tr.TraceID, st.TraceID)
	}
	if tr.SweepID != st.ID {
		t.Fatalf("trace sweep ID %q != job %q", tr.SweepID, st.ID)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	settled := map[int]bool{}
	kinds := map[string]int{}
	distinctNodes := map[string]bool{}
	for _, s := range tr.Spans {
		if s.Node == "" || s.Kind == "" {
			t.Fatalf("span missing node or kind: %+v", s)
		}
		if s.FinishedAt.Before(s.StartedAt) {
			t.Fatalf("span %d finished before it started: %+v", s.Index, s)
		}
		kinds[s.Kind]++
		distinctNodes[s.Node] = true
		if s.Kind != "proxied" {
			// Exactly one terminal span per scenario index; the extra
			// "proxied" hop span shares its index with the owner's span.
			if settled[s.Index] {
				t.Fatalf("scenario %d settled twice in the trace", s.Index)
			}
			settled[s.Index] = true
		}
	}
	if len(settled) != st.Total {
		t.Fatalf("%d scenarios settled in trace, want %d", len(settled), st.Total)
	}
	if len(distinctNodes) < 2 {
		t.Fatalf("trace names %d distinct node(s) %v, want >= 2 (proxied hops must carry the owner's span)", len(distinctNodes), distinctNodes)
	}
	if kinds["proxied"] == 0 || kinds["executed"] == 0 {
		t.Fatalf("span kinds %v: want both proxied hops and executions", kinds)
	}

	// A second identical sweep reuses nothing trace-wise: fresh trace ID,
	// and its spans are all cache hits.
	st2, err := c.SubmitSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.TraceID == st.TraceID {
		t.Fatal("second sweep reused the first sweep's trace ID")
	}
	waitRemote(t, c, st2.ID)
	tr2, err := c.SweepTrace(context.Background(), st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr2.Spans {
		if s.Kind == "executed" {
			t.Fatalf("repeat sweep executed scenario %d; trace should be all cache/proxy", s.Index)
		}
	}
}

// TestTracePropagatesCallerID: a caller-supplied X-Dynring-Trace header is
// adopted verbatim instead of a generated ID.
func TestTracePropagatesCallerID(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64})
	defer m.Close()
	const want = "feedfacecafebeef"
	j, err := m.Submit(testSpec(), SubmitOptions{TraceID: want})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if got := j.Status().TraceID; got != want {
		t.Fatalf("job trace ID %q, want caller-supplied %q", got, want)
	}
	tr, ok := m.Trace(j.ID)
	if !ok || tr.TraceID != want {
		t.Fatalf("Trace = (%+v, %v), want trace ID %q", tr, ok, want)
	}
}

// TestTraceCompleteOnceJobSettles: a row's span is written with the row,
// under the job's lock, so once Wait returns the trace holds exactly one
// span per row, in grid order. A span recorded after its row settled could
// miss a trace read right after Wait; with four workers racing two-row
// sweeps, 3000 sweeps give that window many chances to show.
func TestTraceCompleteOnceJobSettles(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 0})
	defer m.Close()
	spec := testSpec()
	spec.Algorithms = []string{"KnownNNoChirality"}
	spec.Sizes = []int{6}
	for range 3000 {
		j, err := m.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		tr, ok := m.Trace(j.ID)
		if !ok {
			t.Fatalf("settled job %s has no trace", j.ID)
		}
		seen := make(map[int]bool)
		for _, s := range tr.Spans {
			seen[s.Index] = true
		}
		if len(tr.Spans) != j.Total() || len(seen) != j.Total() {
			t.Fatalf("job %s settled with %d spans over %d rows, want one per row: %+v",
				j.ID, len(tr.Spans), j.Total(), tr.Spans)
		}
	}
}

// TestTraceFromRows pins how a trace is read off a job's rows: grid order,
// a proxied row's owner span before this node's span, the kind precedence
// (error, proxied, cache-hit, executed), no span for a row settled by
// cancellation, and no span from a result that lost the race to it.
func TestTraceFromRows(t *testing.T) {
	scs := make([]dynring.Scenario, 5)
	for i := range scs {
		scs[i].Name = fmt.Sprintf("s%d", i)
	}
	created := time.Unix(100, 0)
	j := newJob("sw-1", "abc", scs, make([]string, len(scs)), created)
	at := func(s int64) time.Time { return time.Unix(100+s, 0) }
	owner := &dynring.TraceSpan{Node: "http://b", Kind: "executed", StartedAt: at(3), FinishedAt: at(4)}
	j.setRow(3, Row{Cached: true, started: at(1)})
	j.setRow(1, Row{Cached: true, started: at(2), proxied: true, owner: owner})
	j.setRow(0, Row{Err: errors.New("boom"), started: at(1), proxied: true})
	j.setRow(2, Row{started: at(1)})
	j.markCancelled()
	j.setRow(4, Row{started: at(5), proxied: true, owner: owner}) // late: dropped

	tr := j.trace("http://a")
	if tr.SweepID != "sw-1" || tr.TraceID != "abc" {
		t.Fatalf("trace identifies %q/%q", tr.SweepID, tr.TraceID)
	}
	want := []struct {
		index      int
		node, kind string
	}{
		{0, "http://a", "error"},
		{1, "http://b", "executed"},
		{1, "http://a", "proxied"},
		{2, "http://a", "executed"},
		{3, "http://a", "cache-hit"},
	}
	if len(tr.Spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(tr.Spans), len(want), tr.Spans)
	}
	for k, w := range want {
		s := tr.Spans[k]
		if s.Index != w.index || s.Node != w.node || s.Kind != w.kind || s.Name != scs[w.index].Name {
			t.Fatalf("span %d = %+v, want row %d on %s as %s", k, s, w.index, w.node, w.kind)
		}
		if own := s.Node == "http://a"; own != s.EnqueuedAt.Equal(created) {
			t.Fatalf("span %d: EnqueuedAt %v; only this node's spans carry the job's creation", k, s.EnqueuedAt)
		}
		if s.FinishedAt.Before(s.StartedAt) {
			t.Fatalf("span %d finished before it started: %+v", k, s)
		}
	}
	if tr.Spans[0].Error != "boom" {
		t.Fatalf("error span carries %q, want the row's error", tr.Spans[0].Error)
	}
}

// TestHeapPlateauThroughHandler: sweeps driven through the HTTP API (submit,
// stream the results, fetch the trace) far past JobHistory leave the heap
// where it stood once the history first filled. Job, row and span retention
// are all bounded by JobHistory, so anything that grows per sweep shows here.
func TestHeapPlateauThroughHandler(t *testing.T) {
	const history = 64
	sweeps := 40 * history
	if raceEnabled {
		// Instrumented runs are slow and their shadow memory is not the
		// heap this gate is about: just exercise the path.
		sweeps = 8 * history
	}
	m := mustNew(t, Options{Workers: 2, CacheSize: 64, JobHistory: history})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := dynring.NewClient(srv.URL)
	ctx := context.Background()
	spec := testSpec()
	spec.Algorithms = []string{"KnownNNoChirality"}
	spec.Sizes = []int{6}

	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var warm uint64
	for k := range sweeps {
		// Fresh seeds, so rows execute and the cache turns over too.
		spec.Seeds = []int64{int64(2 * k), int64(2*k + 1)}
		st, err := c.SubmitSweep(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		if err := c.StreamResults(ctx, st.ID, func(dynring.ResultRow) error { rows++; return nil }); err != nil {
			t.Fatal(err)
		}
		tr, err := c.SweepTrace(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rows != st.Total || len(tr.Spans) != st.Total {
			t.Fatalf("sweep %s: %d rows streamed, %d spans, want %d", st.ID, rows, len(tr.Spans), st.Total)
		}
		if k+1 == 4*history {
			warm = heapInuse()
		}
	}
	final := heapInuse()
	t.Logf("HeapInuse %d B after %d sweeps, %d B after %d", warm, 4*history, final, sweeps)
	if !raceEnabled && float64(final) > 1.25*float64(warm) {
		t.Fatalf("heap grew from %d B after %d sweeps to %d B after %d: per-sweep state outlives JobHistory=%d",
			warm, 4*history, final, sweeps, history)
	}
}

// TestTraceUnknownSweep404s pins the endpoint's error contract.
func TestTraceUnknownSweep404s(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 8})
	defer m.Close()
	req, rec := newTestRequest(http.MethodGet, "/v1/sweeps/nope/trace", nil)
	NewHandler(m).ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown sweep trace status %d, want 404", rec.Code)
	}
}

// TestStatszHitRatioZeroFresh pins the satellite fix: a server that has
// never looked anything up reports hit_ratio 0, not NaN — NaN is not valid
// JSON and would make the whole /statsz document unmarshalable.
func TestStatszHitRatioZeroFresh(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 8})
	defer m.Close()
	req, rec := newTestRequest(http.MethodGet, "/statsz", nil)
	NewHandler(m).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		HitRatio json.RawMessage `json:"hit_ratio"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("fresh /statsz is not valid JSON: %v\n%s", err, rec.Body)
	}
	if got := string(doc.HitRatio); got != "0" {
		t.Fatalf("fresh hit_ratio rendered as %q, want literal 0", got)
	}
	st := m.Stats()
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Fatalf("manager not fresh: %+v", st.Cache)
	}
	if r := st.HitRatio; r != 0 {
		t.Fatalf("Stats().HitRatio = %v, want 0", r)
	}
}

// TestMetricsEndpointShape: every family advertised on a disk-tier node
// renders HELP before TYPE before samples, and the histogram families
// carry the _bucket/_sum/_count triplet.
func TestMetricsEndpointShape(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64, DiskDir: t.TempDir()})
	defer m.Close()
	j, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	req, rec := newTestRequest(http.MethodGet, "/metrics", nil)
	NewHandler(m).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("dynring_service_executions_total %d\n", j.Total()),
		`dynring_cache_hits_total{tier="memory"}`,
		`dynring_cache_misses_total{tier="disk"}`,
		"dynring_cache_promotions_total",
		"dynring_cache_write_queue_depth",
		"# TYPE dynring_service_run_seconds histogram\n",
		`dynring_service_run_seconds_bucket{le="+Inf"} ` + fmt.Sprint(j.Total()),
		fmt.Sprintf("dynring_service_run_seconds_count %d\n", j.Total()),
		fmt.Sprintf("dynring_service_queue_wait_seconds_count %d\n", j.Total()),
		"# HELP dynring_engine_leaps_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, "dynring_cluster_") {
		t.Error("standalone node renders cluster families")
	}
}

// waitFor polls cond until it holds, failing the test after 10 s with
// the last description cond returned.
func waitFor(t *testing.T, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, state := cond()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationMetrics: on a 3-node cluster with 3 replicas, every
// execution makes two push attempts. Each is counted once: sent (with its
// round trip in the push histogram) or failed. Every sent envelope is
// adopted by its replica, and the push queue drains to 0. Node 0's pushes
// to node 2 fail at its transport.
func TestReplicationMetrics(t *testing.T) {
	var failHost atomic.Value
	failHost.Store("")
	failing := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/v1/replicate" && req.URL.Host == failHost.Load().(string) {
			req.Body.Close()
			return nil, errors.New("injected push failure")
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	nodes := startCluster(t, 3, func(i int) Options {
		o := Options{Workers: 2, CacheSize: 256}
		o.Cluster.Replicas = 3
		if i == 0 {
			o.Cluster.Transport = failing
		}
		return o
	})
	failHost.Store(strings.TrimPrefix(nodes[2].url, "http://"))
	// 32 rows: node 0 owns none of them with probability (2/3)^32.
	spec := testSpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	j, err := nodes[0].m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	waitFor(t, func() (bool, string) {
		var sent, adopted uint64
		state := ""
		ok := true
		for i, nd := range nodes {
			mt, ex := nd.m.met, nd.m.Stats().Executions
			s, f := mt.replSent.Value(), mt.replPushFailures.Value()
			sent += s
			adopted += mt.replAdopted.Value()
			wantFailed := uint64(0)
			if i == 0 {
				wantFailed = ex
			}
			ok = ok && s+f == 2*ex && f == wantFailed && mt.replSkipped.Value() == 0 && mt.replPushRTT.Count() == s
			state += fmt.Sprintf("node %d: %d executions, %d sent, %d failed, %d skipped, %d timed, %d adopted; ",
				i, ex, s, f, mt.replSkipped.Value(), mt.replPushRTT.Count(), mt.replAdopted.Value())
		}
		return ok && sent == adopted && sent > 0, state
	})
	if nodes[0].m.met.replPushFailures.Value() == 0 {
		t.Fatal("node 0 executed nothing, so no push failed")
	}
	for _, nd := range nodes {
		if depth := scrapeMetric(t, nd.url, "dynring_cluster_replication_queue_depth"); depth != 0 {
			t.Errorf("%s: replication queue depth %v after the pushes drained", nd.url, depth)
		}
	}
}

// TestReplicationSkipsUnroutableReplica: an envelope whose replica is not
// routable is not pushed; it is counted as skipped, never as sent or
// failed.
func TestReplicationSkipsUnroutableReplica(t *testing.T) {
	nodes := startCluster(t, 2, func(int) Options {
		o := Options{Workers: 2, CacheSize: 256}
		o.Cluster.Replicas = 2
		return o
	})
	nodes[1].srv.Close()
	waitFor(t, func() (bool, string) {
		return !nodes[0].m.membership.Routable(nodes[1].url), "node 1 stayed routable after its listener closed"
	})
	j, err := nodes[0].m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	mt := nodes[0].m.met
	waitFor(t, func() (bool, string) {
		ex := nodes[0].m.Stats().Executions
		return ex == uint64(j.Total()) && mt.replSkipped.Value() == ex,
			fmt.Sprintf("%d executions, %d skipped", ex, mt.replSkipped.Value())
	})
	if s, f := mt.replSent.Value(), mt.replPushFailures.Value(); s != 0 || f != 0 {
		t.Fatalf("%d sent and %d failed pushes to an unroutable replica", s, f)
	}
}
