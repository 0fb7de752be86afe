package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynring"
)

// testSpec is a small mixed grid: 2 algorithms × 2 sizes × 2 seeds.
func testSpec() dynring.SweepSpec {
	return dynring.SweepSpec{
		Base: dynring.ScenarioSpec{Landmark: 0},
		Algorithms: []string{
			"KnownNNoChirality", "UnconsciousExploration",
		},
		Sizes: []int{6, 8},
		Seeds: []int64{1, 2},
		Adversaries: []dynring.AdversarySpec{
			{Kind: "random", P: 0.4},
		},
	}
}

// mustManager builds an unstarted manager (no workers, no probes) for
// scheduler-driving tests.
func mustManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustNew starts a full manager, failing the test on construction errors.
func mustNew(tb testing.TB, opts Options) *Manager {
	tb.Helper()
	m, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not settle: %v", j.ID, err)
	}
}

func TestCacheLRUAndCounters(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", dynring.Result{Rounds: 1})
	c.Put("b", dynring.Result{Rounds: 2})
	if res, ok := c.Get("a"); !ok || res.Rounds != 1 {
		t.Fatalf("Get(a) = %v, %v", res, ok)
	}
	c.Put("c", dynring.Result{Rounds: 3}) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	st := c.Stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("size/capacity = %d/%d", st.Size, st.Capacity)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}

	off := NewCache(0)
	off.Put("x", dynring.Result{})
	if _, ok := off.Get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestRepeatedSubmissionServedFromCache is the PR's acceptance gate: an
// identical grid resubmitted after completion executes zero scenarios.
func TestRepeatedSubmissionServedFromCache(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 1024})
	defer m.Close()

	j1, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	total := uint64(j1.Total())
	st := m.Stats()
	if st.Executions != total {
		t.Fatalf("first run executed %d of %d scenarios", st.Executions, total)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != total {
		t.Fatalf("first run cache hits/misses = %d/%d", st.Cache.Hits, st.Cache.Misses)
	}

	j2, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	st = m.Stats()
	if st.Executions != total {
		t.Fatalf("repeat submission executed %d scenarios (want 0 new; total executions %d)",
			st.Executions-total, st.Executions)
	}
	if st.Cache.Hits != total {
		t.Fatalf("repeat submission cache hits = %d, want %d", st.Cache.Hits, total)
	}
	if got := j2.Status().CacheHits; got != int(total) {
		t.Fatalf("job2 CacheHits = %d, want %d", got, total)
	}

	// Cached rows carry the exact Results of the first run.
	for i := 0; i < j1.Total(); i++ {
		r1, _ := j1.WaitRow(context.Background(), i)
		r2, _ := j2.WaitRow(context.Background(), i)
		if r1.Err != nil || r2.Err != nil {
			t.Fatalf("row %d errs: %v, %v", i, r1.Err, r2.Err)
		}
		if !r2.Cached {
			t.Fatalf("row %d of repeat job not served from cache", i)
		}
		if fmt.Sprint(r1.Result) != fmt.Sprint(r2.Result) {
			t.Fatalf("row %d results differ:\n%v\n%v", i, r1.Result, r2.Result)
		}
	}
}

// TestFairRoundRobin drives the scheduler by hand: with two queued jobs the
// pool must alternate between them task by task.
func TestFairRoundRobin(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, CacheSize: 0})
	spec := testSpec()
	spec.Algorithms = []string{"KnownNNoChirality"}
	spec.Sizes = []int{6}
	spec.Seeds = []int64{1, 2, 3}
	j1, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []*Job{j1, j2, j1, j2, j1, j2}
	for k, wj := range want {
		tk, ok := m.nextTask()
		if !ok {
			t.Fatalf("nextTask %d: scheduler closed", k)
		}
		if tk.j != wj {
			t.Fatalf("task %d came from %s, want %s (unfair interleaving)", k, tk.j.ID, wj.ID)
		}
		if tk.i != k/2 {
			t.Fatalf("task %d has index %d, want %d", k, tk.i, k/2)
		}
	}
	m.mu.Lock()
	if n := m.sched.Len(); n != 0 {
		t.Fatalf("queue not drained: %d tasks", n)
	}
	m.mu.Unlock()
}

// TestWeightedFairnessUnderChurn is the property form of the fairness
// gate through the full Manager: a 3:1 tenant weight ratio yields a ~3:1
// served-task ratio under continuous job churn, and a tenant whose quota
// is exhausted never blocks the others.
func TestWeightedFairnessUnderChurn(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, CacheSize: 0, Tenants: []TenantConfig{
		{Name: "heavy", Key: "kh", Weight: 3},
		{Name: "light", Key: "kl", Weight: 1},
		{Name: "capped", Key: "kc", Weight: 100, MaxQueued: 3},
	}})
	spec := testSpec()
	spec.Algorithms = []string{"KnownNNoChirality"}
	spec.Sizes = []int{6}
	spec.Seeds = []int64{1, 2, 3} // 3 scenarios per job
	submit := func(tenant string) error {
		_, err := m.Submit(spec, SubmitOptions{Tenant: tenant})
		return err
	}
	// Exhaust capped's queue quota up front; every further submission for
	// it must bounce, and its huge weight must be irrelevant below.
	if err := submit("capped"); err != nil {
		t.Fatal(err)
	}
	if err := submit("capped"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit error = %v, want ErrQuotaExceeded", err)
	}

	served := map[string]int{}
	for i := 0; i < 800; i++ {
		// Keep heavy and light saturated (backlog deeper than heavy's
		// quantum) so neither ever forfeits deficit by running dry.
		m.mu.Lock()
		needHeavy := m.sched.Backlog("heavy") < 4
		needLight := m.sched.Backlog("light") < 4
		m.mu.Unlock()
		if needHeavy {
			if err := submit("heavy"); err != nil {
				t.Fatal(err)
			}
		}
		if needLight {
			if err := submit("light"); err != nil {
				t.Fatal(err)
			}
		}
		tk, ok := m.nextTask()
		if !ok {
			t.Fatal("scheduler closed mid-test")
		}
		served[tk.j.Tenant]++
	}
	// capped's one admitted job (3 tasks) drains early thanks to its
	// weight; after that it is dry and must cost heavy/light nothing.
	if served["capped"] != 3 {
		t.Fatalf("capped served %d tasks, want exactly its 3 admitted", served["capped"])
	}
	ratio := float64(served["heavy"]) / float64(served["light"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("served ratio heavy:light = %.2f (heavy=%d light=%d), want ~3.0",
			ratio, served["heavy"], served["light"])
	}
	// The exhausted tenant's rejections are visible in its stats.
	st := m.Stats()
	var capped *dynring.TenantStat
	for i := range st.Tenants {
		if st.Tenants[i].Name == "capped" {
			capped = &st.Tenants[i]
		}
	}
	if capped == nil || capped.Rejected == 0 {
		t.Fatalf("capped tenant stats missing rejection: %+v", st.Tenants)
	}
}

func TestCancelSettlesPendingRows(t *testing.T) {
	// One worker and a grid big enough that cancellation lands mid-flight.
	m := mustNew(t, Options{Workers: 1, CacheSize: 0})
	defer m.Close()
	spec := testSpec()
	spec.Sizes = []int{8, 10, 12, 14}
	spec.Seeds = []int64{1, 2, 3, 4}
	j, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(j.ID) {
		t.Fatal("Cancel returned false for a live job")
	}
	if m.Cancel("nope") {
		t.Fatal("Cancel accepted an unknown id")
	}
	waitDone(t, j)
	st := j.Status()
	if st.State != "cancelled" {
		t.Fatalf("state = %s", st.State)
	}
	if st.Completed != st.Total {
		t.Fatalf("cancelled job not settled: %d/%d", st.Completed, st.Total)
	}
	if st.Errors == 0 {
		t.Fatal("cancelled job reports no errored rows")
	}
	// Streaming a cancelled job terminates rather than hanging.
	row, err := j.WaitRow(context.Background(), st.Total-1)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Done {
		t.Fatal("last row not settled")
	}
}

// streamBody GETs a job's full NDJSON result stream.
func streamBody(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postSweep POSTs a spec and decodes the created job status.
func postSweep(t *testing.T, srv *httptest.Server, spec dynring.SweepSpec) dynring.JobStatus {
	t.Helper()
	buf, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST status %d: %s", resp.StatusCode, raw)
	}
	var st dynring.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPStreamsAreByteIdentical covers the acceptance criterion
// end-to-end over HTTP: the NDJSON stream of a repeated submission — and of
// the same grid on a server with a different worker count — is byte-for-byte
// identical, and /statsz proves the repeat ran nothing.
func TestHTTPStreamsAreByteIdentical(t *testing.T) {
	m8 := mustNew(t, Options{Workers: 8, CacheSize: 1024})
	defer m8.Close()
	srv8 := httptest.NewServer(NewHandler(m8))
	defer srv8.Close()

	st1 := postSweep(t, srv8, testSpec())
	body1 := streamBody(t, srv8, st1.ID) // blocks until the job settles
	st2 := postSweep(t, srv8, testSpec())
	body2 := streamBody(t, srv8, st2.ID)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat stream differs:\n%s\nvs\n%s", body1, body2)
	}

	var stats dynring.ServiceStats
	resp, err := http.Get(srv8.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Executions != uint64(st1.Total) {
		t.Fatalf("executions = %d, want %d (repeat must run nothing)", stats.Executions, st1.Total)
	}
	if stats.Cache.Hits != uint64(st2.Total) {
		t.Fatalf("cache hits = %d, want %d", stats.Cache.Hits, st2.Total)
	}

	m1 := mustNew(t, Options{Workers: 1, CacheSize: 1024})
	defer m1.Close()
	srv1 := httptest.NewServer(NewHandler(m1))
	defer srv1.Close()
	st3 := postSweep(t, srv1, testSpec())
	body3 := streamBody(t, srv1, st3.ID)
	if !bytes.Equal(body1, body3) {
		t.Fatalf("stream differs between 8 and 1 workers:\n%s\nvs\n%s", body1, body3)
	}

	// Rows decode, arrive in grid order, and carry fingerprints.
	lines := bytes.Split(bytes.TrimSpace(body1), []byte("\n"))
	if len(lines) != st1.Total {
		t.Fatalf("%d rows, want %d", len(lines), st1.Total)
	}
	for i, line := range lines {
		var row dynring.ResultRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.Index != i {
			t.Fatalf("row %d has index %d (stream out of grid order)", i, row.Index)
		}
		if len(row.Fingerprint) != 32 {
			t.Fatalf("row %d fingerprint %q", i, row.Fingerprint)
		}
		if row.Error != "" || row.Result == nil {
			t.Fatalf("row %d not successful: %+v", i, row)
		}
	}
}

func TestHTTPErrorsAndLifecycle(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 16})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// healthz
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Unknown ids are 404 on every job route.
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sweeps/nope"},
		{http.MethodGet, "/v1/sweeps/nope/results"},
		{http.MethodDelete, "/v1/sweeps/nope"},
	} {
		r, _ := http.NewRequest(req.method, srv.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d", req.method, req.path, resp.StatusCode)
		}
	}

	// Invalid grids are rejected up front with the validation message.
	bad := testSpec()
	bad.Algorithms = []string{"NoSuchAlgorithm"}
	buf, _ := json.Marshal(bad)
	resp, err = http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad grid status %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "NoSuchAlgorithm") {
		t.Fatalf("error body lacks cause: %s", raw)
	}

	// Unknown JSON fields are rejected (typo protection).
	resp, err = http.Post(srv.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"base":{"size":8},"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", resp.StatusCode)
	}

	// Submit, status, cancel round trip.
	st := postSweep(t, srv, testSpec())
	if st.ID == "" || st.Total == 0 || st.State == "" {
		t.Fatalf("bad created status %+v", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after dynring.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The tiny grid may settle before the DELETE lands; either way the job
	// must be settled afterwards (cancelling a done job is a no-op).
	if after.State != "cancelled" && after.State != "done" {
		t.Fatalf("state after DELETE = %s", after.State)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 0})
	m.Close()
	if _, err := m.Submit(testSpec(), SubmitOptions{}); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

// TestConcurrentJobsAllSettle exercises the shared pool under many
// overlapping jobs (also a -race workout for the scheduler).
func TestConcurrentJobsAllSettle(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 256})
	defer m.Close()
	var jobs []*Job
	for k := 0; k < 6; k++ {
		spec := testSpec()
		spec.Seeds = []int64{int64(k), int64(k) + 10}
		j, err := m.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.Status(); st.Errors != 0 {
			t.Fatalf("job %s had %d errors", j.ID, st.Errors)
		}
	}
	if st := m.Stats(); st.ActiveJobs != 0 || st.Jobs != 6 {
		t.Fatalf("stats after settle: %+v", st)
	}
}

// TestJobHistoryEviction: settled jobs beyond the JobHistory bound are
// evicted oldest-first, so the job table stays bounded on a long-running
// service; running jobs are never evicted.
func TestJobHistoryEviction(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64, JobHistory: 2})
	defer m.Close()
	spec := testSpec()
	spec.Algorithms = []string{"KnownNNoChirality"}
	spec.Sizes = []int{6}
	spec.Seeds = []int64{1}

	var ids []string
	for k := 0; k < 4; k++ {
		j, err := m.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	// After the 4th submission settles, only the newest history-bound jobs
	// survive the next prune (prune runs on Submit).
	j5, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j5)

	if _, ok := m.Job(ids[0]); ok {
		t.Fatalf("oldest settled job %s not evicted", ids[0])
	}
	if _, ok := m.Job(j5.ID); !ok {
		t.Fatal("newest job evicted")
	}
	st := m.Stats()
	if st.Jobs > 3 {
		t.Fatalf("job table not bounded: %d jobs", st.Jobs)
	}
	sameLife := func(m *Manager, id string) {
		t.Helper()
		_, job := m.Job(id)
		_, trace := m.Trace(id)
		if job != trace {
			t.Fatalf("sweep %s: Job answers %v but Trace answers %v", id, job, trace)
		}
	}
	for _, id := range append(ids, j5.ID) {
		sameLife(m, id)
	}

	// Past 256 sweeps at the default history: the oldest sweep keeps its
	// trace as long as it keeps its job.
	md := mustNew(t, Options{Workers: 2, CacheSize: 64})
	defer md.Close()
	for k := 0; k < 300; k++ {
		j, err := md.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if _, ok := md.Job("sw-1"); !ok {
		t.Fatal("sw-1 evicted under the default history")
	}
	sameLife(md, "sw-1")
}

// TestOverlappingGridsShareCache: seeds derive from scenario identity, not
// grid position, so a differently-shaped grid that overlaps an earlier one
// is served from cache for the shared scenarios.
func TestOverlappingGridsShareCache(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 1024})
	defer m.Close()

	wide := testSpec() // sizes [6 8] × algos × seeds
	j1, err := m.Submit(wide, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	execsBefore := m.Stats().Executions

	narrow := testSpec()
	narrow.Sizes = []int{8} // strict subset, different axis shape
	j2, err := m.Submit(narrow, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if got := m.Stats().Executions; got != execsBefore {
		t.Fatalf("overlapping grid re-executed %d scenarios", got-execsBefore)
	}
	if hits := j2.Status().CacheHits; hits != j2.Total() {
		t.Fatalf("overlap job hit cache %d/%d times", hits, j2.Total())
	}
}

// TestPanickingScenarioDoesNotKillDaemon: a run-time fault in one scenario
// (here: a pin target no algorithm has) settles that row with an error; the
// worker, the job, and every other client survive.
func TestPanickingScenarioDoesNotKillDaemon(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 16})
	defer m.Close()

	bad := dynring.SweepSpec{
		Base:        dynring.ScenarioSpec{Landmark: 0, Size: 8, Algorithm: "KnownNNoChirality"},
		Adversaries: []dynring.AdversarySpec{{Kind: "pin", Pin: 99}},
	}
	j, err := m.Submit(bad, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	st := j.Status()
	if st.State != "done" || st.Errors != st.Total {
		t.Fatalf("bad job status %+v", st)
	}
	row, _ := j.WaitRow(context.Background(), 0)
	if row.Err == nil || !strings.Contains(row.Err.Error(), "panicked") {
		t.Fatalf("row error = %v", row.Err)
	}

	// The pool is still alive: a good job completes afterwards.
	good, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good)
	if st := good.Status(); st.Errors != 0 {
		t.Fatalf("good job after panic: %+v", st)
	}

	// Negative parameters are rejected before submission.
	neg := bad
	neg.Adversaries = []dynring.AdversarySpec{{Kind: "pin", Pin: -1}}
	if _, err := m.Submit(neg, SubmitOptions{}); err == nil {
		t.Fatal("negative pin accepted")
	}
}

// blockingHandler is an slog.Handler whose Handle blocks on the "sweep
// submitted" record until release is closed, as a full stderr pipe would.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
}

func (h *blockingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *blockingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *blockingHandler) WithGroup(string) slog.Handler            { return h }

func (h *blockingHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "sweep submitted" {
		close(h.entered)
		<-h.release
	}
	return nil
}

// TestSubmitLogsAfterUnlocking: while Submit's log record is stuck in a
// blocked handler, the manager's lock is free — Stats, which takes it,
// returns.
func TestSubmitLogsAfterUnlocking(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}), release: make(chan struct{})}
	m := mustNew(t, Options{Workers: 1, CacheSize: 64, Logger: slog.New(h)})
	defer m.Close()
	submitted := make(chan error, 1)
	go func() {
		_, err := m.Submit(testSpec(), SubmitOptions{})
		submitted <- err
	}()
	<-h.entered
	stats := make(chan dynring.ServiceStats, 1)
	go func() { stats <- m.Stats() }()
	select {
	case st := <-stats:
		if st.Jobs != 1 {
			t.Errorf("Stats reports %d jobs while the submission is logged, want 1", st.Jobs)
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats blocked while Submit's log record was stuck in its handler")
	}
	close(h.release)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
}
