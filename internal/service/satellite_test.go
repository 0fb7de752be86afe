package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynring"
)

// TestCacheDeepCopiesResults: the cache must own its entries outright. A
// caller mutating the Result it Put (or one it Got) must never alter what
// the next Get of the same fingerprint returns — an aliased slice here
// would let one buggy client poison every later cache hit.
func TestCacheDeepCopiesResults(t *testing.T) {
	c := NewCache(8)
	orig := dynring.Result{
		Rounds:       7,
		TerminatedAt: []int{3, 5},
		Moves:        []int{10, 12},
	}
	c.Put("k", orig)

	// Mutating the value we stored must not reach the cache.
	orig.TerminatedAt[0] = -99
	orig.Moves[1] = -99
	got1, ok := c.Get("k")
	if !ok {
		t.Fatal("missing entry")
	}
	if got1.TerminatedAt[0] != 3 || got1.Moves[1] != 12 {
		t.Fatalf("Put aliased caller slices: %+v", got1)
	}

	// Mutating the value we read must not reach the cache either.
	got1.TerminatedAt[1] = -99
	got1.Moves[0] = -99
	got2, ok := c.Get("k")
	if !ok {
		t.Fatal("missing entry on second Get")
	}
	if got2.TerminatedAt[1] != 5 || got2.Moves[0] != 10 {
		t.Fatalf("Get handed out an aliased slice: %+v", got2)
	}
}

// TestDisabledCacheReportsCachingOff: with -cache 0 the Get path
// short-circuits, so /statsz reports Capacity 0 with both counters at 0
// ("caching off") instead of a misleading 0% hit rate. A disk tier below
// it still reports its own hit ratio.
func TestDisabledCacheReportsCachingOff(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 5; i++ {
		c.Put("k", dynring.Result{Rounds: i})
		if _, ok := c.Get("k"); ok {
			t.Fatal("disabled cache returned a hit")
		}
	}
	st := c.Stats()
	if st.Capacity != 0 || st.Size != 0 {
		t.Fatalf("capacity/size = %d/%d, want 0/0", st.Capacity, st.Size)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d, want 0/0", st.Hits, st.Misses)
	}
	if r := c.HitRatio(); r != 0 {
		t.Fatalf("HitRatio with caching off = %v, want 0", r)
	}

	// With a disk tier (-cache 0 -data) every lookup reaches the disk, so
	// the hit ratio is its hits over its lookups, while the memory tier
	// still counts nothing.
	tc, err := NewTieredCache(0, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tc.Put("k", dynring.Result{Rounds: 1})
	tc.Close() // flushed: the hits below are file reads either way
	for _, key := range []string{"k", "k", "k", "absent"} {
		tc.Get(key)
	}
	if st := tc.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled memory tier counted hits=%d misses=%d, want 0/0", st.Hits, st.Misses)
	}
	if r := tc.HitRatio(); r != 0.75 {
		t.Fatalf("HitRatio with only a disk tier = %v, want 0.75 (3 disk hits of 4 lookups)", r)
	}
}

// TestDiskOnlyExecutesOnce: with the memory tier off (-cache 0) and a
// disk tier (-data), the disk tier alone makes execution exactly-once for
// callers that never overlap. Each of 200 fresh fingerprints is run twice
// in a row through ExecuteLocal, and again through a grid that lists
// every scenario twice: the repeat is served from the disk tier, whose
// Put is readable before its write reaches the disk.
func TestDiskOnlyExecutesOnce(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 0, DiskDir: t.TempDir()})
	defer m.Close()
	spec := testSpec()
	spec.Algorithms, spec.Sizes = spec.Algorithms[:1], spec.Sizes[:1]
	spec.Seeds = nil
	for s := int64(1); s <= 200; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	scs, err := spec.ScenarioList()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		for run := range 2 {
			_, shared, err := m.ExecuteLocal(context.Background(), sc, fp)
			if err != nil {
				t.Fatal(err)
			}
			if run == 1 && !shared {
				t.Fatalf("repeat of %s executed again (disk stats %+v)", fp, *m.Stats().Disk)
			}
		}
	}
	if got := m.Stats().Executions; got != uint64(len(scs)) {
		t.Fatalf("executions = %d, want %d", got, len(scs))
	}

	// A grid listing each of 100 fresh scenarios twice runs each once.
	spec.Seeds = spec.Seeds[:0]
	for s := int64(1001); s <= 1100; s++ {
		spec.Seeds = append(spec.Seeds, s, s)
	}
	before := m.Stats().Executions
	j, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(); st.Errors != 0 || st.Completed != 200 {
		t.Fatalf("grid status %+v", st)
	}
	if got := m.Stats().Executions - before; got != 100 {
		t.Fatalf("a grid listing 100 scenarios twice ran %d executions, want 100", got)
	}
}

// TestStreamAbortEmitsTerminalRow: when the results stream dies before
// delivering every row, the handler appends a terminal StreamAbortedIndex
// row so a consumer can tell truncation from completion.
func TestStreamAbortEmitsTerminalRow(t *testing.T) {
	// No workers: rows never settle, so WaitRow can only end via the
	// request context.
	m := mustManager(t, Options{Workers: 1, CacheSize: 0})
	j, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // request context already dead: the first WaitRow aborts
	req := httptest.NewRequest("GET", "/v1/sweeps/"+j.ID+"/results", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	NewHandler(m).ServeHTTP(rec, req)

	sc := bufio.NewScanner(rec.Body)
	var rows []dynring.ResultRow
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row dynring.ResultRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want exactly the terminal row", len(rows))
	}
	last := rows[0]
	if last.Index != dynring.StreamAbortedIndex {
		t.Fatalf("terminal row index = %d, want %d", last.Index, dynring.StreamAbortedIndex)
	}
	if !strings.Contains(last.Error, "stream aborted") {
		t.Fatalf("terminal row error = %q, want a stream-aborted message", last.Error)
	}
}

// TestResultsStreamFlushesBeforeBlocking: with row 0 settled and row 1
// pending, the client must receive row 0 while row 1 is still pending. The
// handler writes settled rows without flushing each one, so this holds only
// because it flushes before it waits on a pending row.
func TestResultsStreamFlushesBeforeBlocking(t *testing.T) {
	// No workers: rows settle only when the test settles them.
	m := mustManager(t, Options{Workers: 1, CacheSize: 0})
	j, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.setRow(0, Row{Result: dynring.Result{Rounds: 3}})

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // ends the request, so the handler stops waiting on row 1

	first := make(chan string, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/sweeps/"+j.ID+"/results", nil)
		if err != nil {
			first <- err.Error()
			return
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			first <- err.Error()
			return
		}
		defer resp.Body.Close()
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil {
			line = err.Error()
		}
		first <- line
	}()

	select {
	case line := <-first:
		var row dynring.ResultRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("first line %q: %v", line, err)
		}
		if row.Index != 0 || row.Result == nil || row.Result.Rounds != 3 {
			t.Fatalf("first row = %+v, want settled row 0", row)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("row 0 did not reach the client while row 1 was pending")
	}
	if _, ok := j.SettledRow(1); ok {
		t.Fatal("row 1 settled during the test")
	}
}

// TestDeleteReturnsPostCancelStatus: the DELETE handler must render the
// snapshot taken after cancellation settled the job, not the pre-cancel one.
func TestDeleteReturnsPostCancelStatus(t *testing.T) {
	// No workers: the job stays fully pending until the cancel settles it.
	m := mustManager(t, Options{Workers: 1, CacheSize: 0})
	j, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != "running" || st.Completed != 0 {
		t.Fatalf("precondition: job should be running/0 completed, got %+v", st)
	}

	req := httptest.NewRequest("DELETE", "/v1/sweeps/"+j.ID, nil)
	rec := httptest.NewRecorder()
	NewHandler(m).ServeHTTP(rec, req)

	var st dynring.JobStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("DELETE rendered state %q, want post-cancel \"cancelled\"", st.State)
	}
	if st.Completed != st.Total || st.Errors != st.Total {
		t.Fatalf("DELETE rendered a pre-cancel snapshot: %+v", st)
	}
}

// TestConcurrentSubmitStreamRace is the race-detector stress for the
// batched execution path: many clients submitting overlapping grids and
// streaming results concurrently against one manager — i.e. one shared
// pool of per-worker Runners plus the shared result cache. Run with -race.
func TestConcurrentSubmitStreamRace(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 64})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := dynring.NewClient(srv.URL)

	specs := []dynring.SweepSpec{
		testSpec(),
		{
			Base:        dynring.ScenarioSpec{Landmark: 0},
			Algorithms:  []string{"KnownNNoChirality"},
			Sizes:       []int{6, 8, 10},
			Seeds:       []int64{1, 2},
			Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
		},
		{
			Base:        dynring.ScenarioSpec{Landmark: 0},
			Algorithms:  []string{"LandmarkWithChirality", "PTLandmarkWithChirality"},
			Sizes:       []int{6},
			Seeds:       []int64{1, 2, 3},
			Adversaries: []dynring.AdversarySpec{{Kind: "greedy"}},
		},
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := specs[g%len(specs)]
			ctx := context.Background()
			st, err := client.SubmitSweep(ctx, spec)
			if err != nil {
				errs <- err
				return
			}
			rows := 0
			if err := client.StreamResults(ctx, st.ID, func(row dynring.ResultRow) error {
				rows++
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if rows != st.Total {
				t.Errorf("client %d: streamed %d of %d rows", g, rows, st.Total)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExecuteRunnerPoolNoRace: concurrent executions must never share a
// pooled Runner. execute reads the Runner's stats before returning it to
// the pool; read after, another worker may already be running it. Under
// -race the reversed order reports a data race on the Runner's stats.
func TestExecuteRunnerPoolNoRace(t *testing.T) {
	m := mustManager(t, Options{})
	const goroutines, perGoroutine = 8, 50
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perGoroutine {
				sc, err := dynring.ScenarioSpec{
					Algorithm: "KnownNNoChirality", Size: 8, Landmark: 0,
					Seed:      int64(g*perGoroutine + i),
					Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.4},
				}.Scenario()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.execute(context.Background(), sc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Stats().Executions; got != goroutines*perGoroutine {
		t.Fatalf("executions = %d, want %d", got, goroutines*perGoroutine)
	}
}
