package dynring_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
	"dynring/internal/service"
)

// newTestService boots an in-process ringsimd and a client pointed at it.
func newTestService(t *testing.T, opts service.Options) (*dynring.Client, *service.Manager) {
	t.Helper()
	m, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(srv.Close)
	return dynring.NewClient(srv.URL), m
}

func clientSpec() dynring.SweepSpec {
	return dynring.SweepSpec{
		Base:        dynring.ScenarioSpec{Landmark: 0},
		Algorithms:  []string{"KnownNNoChirality", "LandmarkWithChirality"},
		Sizes:       []int{6, 8},
		Seeds:       []int64{1, 2},
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
}

// TestClientRunSweepMatchesLocal is the remote/local determinism gate: the
// same SweepSpec executed through a ringsimd service yields exactly the
// Results a local Sweep.Run produces, row for row.
func TestClientRunSweepMatchesLocal(t *testing.T) {
	client, _ := newTestService(t, service.Options{Workers: 4, CacheSize: 256})
	ctx := context.Background()

	remote, err := client.RunSweep(ctx, clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := clientSpec().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sw.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote %d results, local %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i].Err != nil || local[i].Err != nil {
			t.Fatalf("row %d errs: remote %v local %v", i, remote[i].Err, local[i].Err)
		}
		if !reflect.DeepEqual(remote[i].Result, local[i].Result) {
			t.Fatalf("row %d diverges:\nremote %+v\nlocal  %+v", i, remote[i].Result, local[i].Result)
		}
		if remote[i].Scenario.Name != local[i].Scenario.Name {
			t.Fatalf("row %d names: %q vs %q", i, remote[i].Scenario.Name, local[i].Scenario.Name)
		}
	}

	// Aggregate — the paper-facing output — is interchangeable too.
	ra, la := dynring.Aggregate(remote), dynring.Aggregate(local)
	if !reflect.DeepEqual(ra, la) {
		t.Fatalf("aggregates diverge:\n%v\n%v", ra, la)
	}
}

func TestClientStatusStreamAndStats(t *testing.T) {
	client, _ := newTestService(t, service.Options{Workers: 2, CacheSize: 64})
	ctx := context.Background()

	st, err := client.SubmitSweep(ctx, clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 8 {
		t.Fatalf("submit status %+v", st)
	}

	var rows []dynring.ResultRow
	err = client.StreamResults(ctx, st.ID, func(r dynring.ResultRow) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != st.Total {
		t.Fatalf("streamed %d rows, want %d", len(rows), st.Total)
	}
	for i, r := range rows {
		if r.Index != i || r.Name == "" || len(r.Fingerprint) != 32 || r.Result == nil {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
	}

	after, err := client.SweepStatus(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Done() || after.State != "done" || after.Completed != after.Total {
		t.Fatalf("final status %+v", after)
	}

	stats, err := client.ServiceStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 1 || stats.Executions != uint64(st.Total) || stats.Workers != 2 {
		t.Fatalf("service stats %+v", stats)
	}

	// A fn error aborts the stream and surfaces.
	sentinel := errors.New("stop")
	err = client.StreamResults(ctx, st.ID, func(dynring.ResultRow) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("stream error = %v", err)
	}
}

func TestClientErrors(t *testing.T) {
	client, _ := newTestService(t, service.Options{Workers: 1, CacheSize: 4})
	ctx := context.Background()

	// Server-side validation failures carry the server's message.
	bad := clientSpec()
	bad.Algorithms = []string{"NoSuchAlgorithm"}
	if _, err := client.SubmitSweep(ctx, bad); err == nil {
		t.Fatal("bad spec accepted")
	}
	// RunSweep validates locally before submitting anything.
	if _, err := client.RunSweep(ctx, bad); err == nil {
		t.Fatal("RunSweep accepted a bad spec")
	}

	if _, err := client.SweepStatus(ctx, "nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := client.StreamResults(ctx, "nope", func(dynring.ResultRow) error { return nil }); err == nil {
		t.Fatal("unknown stream id accepted")
	}

	// Cancel round trip through the client.
	st, err := client.SubmitSweep(ctx, clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	after, err := client.CancelSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != "cancelled" && after.State != "done" {
		t.Fatalf("state after cancel %q", after.State)
	}
}

// TestClientStreamAutoResume: a results connection that dies mid-stream is
// resumed with ?from=<cursor>, rows the resume re-serves below the cursor
// are skipped, and fn observes each index exactly once.
func TestClientStreamAutoResume(t *testing.T) {
	row := func(i int) string {
		return fmt.Sprintf(`{"index":%d,"name":"s%d","fingerprint":"f"}`+"\n", i, i)
	}
	var conns atomic.Int32
	var fromSeen []string
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweeps/j1/results", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(dynring.TotalHeader, "4")
		mu.Lock()
		fromSeen = append(fromSeen, r.URL.Query().Get("from"))
		mu.Unlock()
		if conns.Add(1) == 1 {
			// First connection: two rows, then the connection dies.
			_, _ = w.Write([]byte(row(0) + row(1)))
			return
		}
		// The resume: re-serve one row below the cursor (a server may
		// round down), then the genuine suffix.
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		for i := from - 1; i < 4; i++ {
			_, _ = w.Write([]byte(row(i)))
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond
	var got []int
	err := c.StreamResults(context.Background(), "j1", func(r dynring.ResultRow) error {
		got = append(got, r.Index)
		return nil
	})
	if err != nil {
		t.Fatalf("resumed stream failed: %v", err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fn saw rows %v, want %v (each index exactly once)", got, want)
	}
	if want := []string{"", "2"}; !reflect.DeepEqual(fromSeen, want) {
		t.Fatalf("resume cursors %v, want %v", fromSeen, want)
	}

	// Retries < 0 disables resumption: the same first-connection cut is a
	// terminal truncation error.
	conns.Store(0)
	c2 := dynring.NewClient(srv.URL)
	c2.Retries = -1
	err = c2.StreamResults(context.Background(), "j1", func(dynring.ResultRow) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("with retries disabled, error = %v, want truncation", err)
	}
}

// TestClientStreamResultsFrom: the explicit resume primitive against a real
// service — a consumer holding rows [0,N) continues at N and sees exactly
// the suffix.
func TestClientStreamResultsFrom(t *testing.T) {
	client, _ := newTestService(t, service.Options{Workers: 2, CacheSize: 64})
	ctx := context.Background()
	st, err := client.SubmitSweep(ctx, clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	var all []dynring.ResultRow
	if err := client.StreamResults(ctx, st.ID, func(r dynring.ResultRow) error {
		all = append(all, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	from := st.Total / 2
	var tail []dynring.ResultRow
	if err := client.StreamResultsFrom(ctx, st.ID, from, func(r dynring.ResultRow) error {
		tail = append(tail, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, all[from:]) {
		t.Fatalf("resumed tail diverges from full stream's suffix:\n%+v\nvs\n%+v", tail, all[from:])
	}
	// Out-of-range cursors are rejected: past the end by the server's
	// 400, a negative one client-side before any request.
	if err := client.StreamResultsFrom(ctx, st.ID, st.Total+1, nil); err == nil {
		t.Fatal("out-of-range resume index accepted")
	}
	if err := client.StreamResultsFrom(ctx, st.ID, -1, nil); err == nil {
		t.Fatal("negative resume index accepted")
	}
}

// TestClientRejectsTruncatedStream: a results stream that ends short of the
// full grid — whether with the server's terminal error row or with nothing
// at all (connection cut by a proxy) — must surface as an error, never as a
// quietly complete iteration.
func TestClientRejectsTruncatedStream(t *testing.T) {
	row := func(i int) string {
		return `{"index":` + string(rune('0'+i)) + `,"name":"s","fingerprint":"f"}` + "\n"
	}
	cases := []struct {
		name string
		body string
		want string
	}{
		{
			name: "silent truncation",
			body: row(0) + row(1),
			want: "truncated",
		},
		{
			name: "terminal abort row",
			body: row(0) + `{"index":-1,"error":"stream aborted: context canceled"}` + "\n",
			want: "stream aborted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/sweeps/j1/results", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Header().Set(dynring.TotalHeader, "3")
				_, _ = w.Write([]byte(tc.body))
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			rows := 0
			err := dynring.NewClient(srv.URL).StreamResults(context.Background(), "j1",
				func(dynring.ResultRow) error { rows++; return nil })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("StreamResults error = %v, want one containing %q", err, tc.want)
			}
			if rows > 2 {
				t.Fatalf("fn saw %d rows, terminal row must not be delivered", rows)
			}
		})
	}
}

// TestClientStreamRequiresTotal: a results response whose TotalHeader is
// missing or malformed is an error, at once and without a retry: the
// client has no other source for the row count, so it cannot tell a
// complete stream from a truncated one.
func TestClientStreamRequiresTotal(t *testing.T) {
	for _, total := range []string{"", "three", "-1", "3.0", "0x3"} {
		var calls atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/sweeps/j1/results", func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if total != "" {
				w.Header().Set(dynring.TotalHeader, total)
			}
			_, _ = w.Write([]byte(`{"index":0,"name":"s","fingerprint":"f"}` + "\n"))
		})
		srv := httptest.NewServer(mux)
		c := dynring.NewClient(srv.URL)
		c.RetryBaseDelay = time.Millisecond
		err := c.StreamResults(context.Background(), "j1", func(dynring.ResultRow) error { return nil })
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), dynring.TotalHeader) {
			t.Errorf("total %q: StreamResults error = %v, want one naming %s", total, err, dynring.TotalHeader)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("total %q: %d results requests, want 1", total, n)
		}
	}
}

// countingRT counts the requests it passes on, by method and path.
type countingRT struct {
	mu   sync.Mutex
	seen []string
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.seen = append(c.seen, req.Method+" "+req.URL.Path)
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientSweepIsTwoRequests: a sweep is one POST and one results GET,
// with no status GET between them, and the stream carries every row.
func TestClientSweepIsTwoRequests(t *testing.T) {
	svc, _ := newTestService(t, service.Options{Workers: 2, CacheSize: 64})
	rt := &countingRT{}
	c := &dynring.Client{BaseURL: svc.BaseURL, HTTPClient: &http.Client{Transport: rt}}
	ctx := context.Background()

	st, err := c.SubmitSweep(ctx, clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := c.StreamResults(ctx, st.ID, func(dynring.ResultRow) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != st.Total {
		t.Fatalf("streamed %d rows, want %d", rows, st.Total)
	}
	want := []string{"POST /v1/sweeps", "GET /v1/sweeps/" + st.ID + "/results"}
	if !reflect.DeepEqual(rt.seen, want) {
		t.Fatalf("requests %q, want %q", rt.seen, want)
	}
}

// lateReadRT answers every POST /v1/sweeps with 201 and a JobStatus. With
// hold set it keeps each request body unread and unclosed past the end of
// RoundTrip, as the RoundTripper contract allows; otherwise it reads and
// closes the body inside RoundTrip, as http.Transport usually does.
type lateReadRT struct {
	hold   bool
	bodies chan io.ReadCloser
	t      *testing.T
}

func (rt *lateReadRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.GetBody == nil || req.ContentLength <= 0 {
		rt.t.Errorf("request body without GetBody or Content-Length (%d): it would be sent chunked", req.ContentLength)
	}
	if rt.hold {
		rt.bodies <- req.Body
	} else {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusCreated,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"id":"sw-1","state":"running"}`)),
		Request:    req,
	}, nil
}

// TestClientPooledBodySurvivesLateRead: request bodies are encoded into
// pooled buffers, yet a body a RoundTripper reads only after SubmitSweep
// has returned, while other submits reuse the pool, still holds
// json.Marshal(spec)'s bytes; and a retried submit sends those bytes on
// every attempt.
func TestClientPooledBodySurvivesLateRead(t *testing.T) {
	specs := make([]dynring.SweepSpec, 24)
	want := make([][]byte, len(specs))
	for i := range specs {
		specs[i] = clientSpec()
		specs[i].Seeds = []int64{int64(i), int64(1000 * i)}
		specs[i].Adversaries[0].P = 1 / float64(i+3)
		want[i], _ = json.Marshal(specs[i])
	}
	late := &lateReadRT{hold: true, bodies: make(chan io.ReadCloser, 1), t: t}
	eager := &lateReadRT{t: t}
	lateClient := &dynring.Client{BaseURL: "http://late.invalid", HTTPClient: &http.Client{Transport: late}}
	eagerClient := &dynring.Client{BaseURL: "http://eager.invalid", HTTPClient: &http.Client{Transport: eager}}
	ctx := context.Background()
	for i, spec := range specs {
		if _, err := lateClient.SubmitSweep(ctx, spec); err != nil {
			t.Fatal(err)
		}
		body := <-late.bodies
		var wg sync.WaitGroup
		for k := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := eagerClient.SubmitSweep(ctx, specs[(i+k+1)%len(specs)]); err != nil {
					t.Error(err)
				}
			}()
		}
		// One more submit on this goroutine, which most likely draws from
		// the same per-P pool the late body's buffer would have gone to.
		if _, err := eagerClient.SubmitSweep(ctx, specs[(i+5)%len(specs)]); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(body)
		body.Close()
		wg.Wait()
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("submit %d: body read after the call = %s, %v; want %s", i, got, err, want[i])
		}
	}

	var mu sync.Mutex
	var attempts [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		attempts = append(attempts, b)
		n := len(attempts)
		mu.Unlock()
		if n == 1 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"sw-1","state":"running"}`))
	}))
	defer srv.Close()
	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond
	if _, err := c.SubmitSweep(ctx, specs[0]); err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 || !bytes.Equal(attempts[0], want[0]) || !bytes.Equal(attempts[1], want[0]) {
		t.Fatalf("attempts sent %q, want json.Marshal(spec) twice: %s", attempts, want[0])
	}
}

// TestResultRowCodecAllocs bounds the per-row cost: appending into a
// reused buffer never allocates, and a fast-path parse allocates only the
// name, the fingerprint, the Result and its two slices.
func TestResultRowCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	row := dynring.ResultRow{Index: 17, Name: "KnownNNoChirality/n=8/random(p=0.5)/seed=3", Fingerprint: "v2-0123456789abcdef",
		Result: &dynring.Result{Outcome: dynring.OutcomeAllTerminated, Rounds: 120, Explored: true, ExploredRound: 40,
			TerminatedAt: []int{100, 120}, Terminated: 2, Moves: []int{57, 61}, TotalMoves: 118}}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() { buf = row.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a reused buffer: %v allocs, want 0", n)
	}
	var back dynring.ResultRow
	if n := testing.AllocsPerRun(200, func() { _ = dynring.ParseResultRow(buf, &back) }); n > 5 {
		t.Errorf("fast-path ParseResultRow: %v allocs, want ≤ 5", n)
	}
}
