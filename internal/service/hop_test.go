package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
)

// ownedSpec is testSpec's first algorithm and size over the first seeds
// whose rows coord's ring places as want asks: want[url] rows owned by
// the node at url.
func ownedSpec(t *testing.T, coord *testNode, want map[string]int) dynring.SweepSpec {
	t.Helper()
	need := 0
	for _, n := range want {
		need += n
	}
	ring := coord.m.membership.Ring()
	spec := testSpec()
	spec.Algorithms, spec.Sizes, spec.Seeds = spec.Algorithms[:1], spec.Sizes[:1], nil
	owned := map[string]int{}
	for s := int64(1); len(spec.Seeds) < need; s++ {
		one := spec
		one.Seeds = []int64{s}
		scs, err := one.ScenarioList()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := scs[0].Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if owner := ring.Owner(fp); owned[owner] < want[owner] {
			owned[owner]++
			spec.Seeds = append(spec.Seeds, s)
		}
	}
	return spec
}

// TestRunEndpointBatch exercises the NDJSON form of POST /v1/run: one
// RunResponse line per request line — in settle order, each with its own
// span — one execution per distinct fingerprint, one run request counted
// per row; a bad line or an empty body fails the whole batch with a 400.
// The single-JSON form answers exactly what json.Encoder wrote.
func TestRunEndpointBatch(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64,
		Tenants: []TenantConfig{{Name: "alice", Key: "sk-alice", Weight: 1}}})
	defer m.Close()
	h := NewHandler(m)
	line := func(seed int64) string {
		b, _ := json.Marshal(dynring.RunRequest{Scenario: dynring.ScenarioSpec{
			Algorithm: "KnownNNoChirality", Size: 6, Seed: seed,
			Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.4},
		}})
		return string(b) + "\n"
	}
	post := func(body, contentType string) (int, string, []byte) {
		t.Helper()
		req, rec := newTestRequest(http.MethodPost, "/v1/run", []byte(body))
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Authorization", "Bearer sk-alice")
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes()
	}

	code, ct, body := post(line(1)+line(2)+"\n"+line(1), ndjsonType)
	if code != http.StatusOK || ct != ndjsonType {
		t.Fatalf("batch: status %d, Content-Type %q: %s", code, ct, body)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("batch of 3 rows answered %d lines:\n%s", len(lines), body)
	}
	fps := map[string]int{}
	for _, l := range lines {
		var rr dynring.RunResponse
		if err := dynring.ParseRunResponse(l, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Error != "" || rr.Result == nil || rr.Span == nil || rr.Span.Node != m.NodeName() {
			t.Fatalf("batch line %s", l)
		}
		if want := rr.AppendJSON(nil); !bytes.Equal(l, want) {
			t.Fatalf("batch line %s is not the codec's %s", l, want)
		}
		fps[rr.Fingerprint]++
	}
	if len(fps) != 2 {
		t.Fatalf("batch lines carry %d distinct fingerprints, want 2", len(fps))
	}
	if got := m.Stats().Executions; got != 2 {
		t.Fatalf("batch with a repeated row executed %d times, want 2", got)
	}
	if got := m.tenants["alice"].runRequests.Load(); got != 3 {
		t.Fatalf("run_requests_total = %d, want one per row (3)", got)
	}

	for _, bad := range []string{line(3) + "junk\n", "", "\n \n"} {
		if code, _, body := post(bad, ndjsonType); code != http.StatusBadRequest {
			t.Fatalf("batch %q: status %d, want 400: %s", bad, code, body)
		}
	}
	if got := m.Stats().Executions; got != 2 {
		t.Fatalf("a rejected batch executed rows (%d executions)", got)
	}

	code, ct, body = post(line(4), "application/json")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("single: status %d, Content-Type %q", code, ct)
	}
	var rr dynring.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := json.NewEncoder(&want).Encode(rr); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Fatalf("single-JSON answer\n %s\nis not json.Encoder's\n %s", body, want.String())
	}
}

// TestHopShortStreamFailsOver: an owner whose batch stream ends before
// every row is answered — cut short after one line, or with one line that
// carries neither result nor error — fails that batch. Its unanswered rows
// have no replica to move to, so they run on the coordinator and count as
// proxy fallbacks; the owner is marked failed; every row settles once,
// with one coordinator span; and the stream is byte-identical to a
// fault-free run's.
func TestHopShortStreamFailsOver(t *testing.T) {
	faults := map[string]func(lines [][]byte) (kept [][]byte, unanswered int){
		"truncated": func(lines [][]byte) ([][]byte, int) {
			return lines[:1], len(lines) - 1
		},
		"blank line": func(lines [][]byte) ([][]byte, int) {
			var rr dynring.RunResponse
			if err := dynring.ParseRunResponse(lines[0], &rr); err != nil {
				t.Error(err)
			}
			blank := fmt.Appendf(nil, "{\"fingerprint\":%q}\n", rr.Fingerprint)
			return append([][]byte{blank}, lines[1:]...), 1
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			// The coordinator's transport faults the first batch answering
			// more than one row: the owner's second batch, after the one
			// the worker carries.
			var faulted atomic.Bool
			var unanswered int
			transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
				resp, err := http.DefaultTransport.RoundTrip(req)
				if err != nil || req.URL.Path != "/v1/run" {
					return resp, err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return nil, err
				}
				lines := bytes.SplitAfter(body, []byte("\n"))
				lines = lines[:len(lines)-1]
				if len(lines) > 1 && faulted.CompareAndSwap(false, true) {
					lines, unanswered = fault(lines)
					body = bytes.Join(lines, nil)
				}
				resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), -1
				resp.Header.Del("Content-Length")
				return resp, nil
			})
			nodes := startCluster(t, 2, func(i int) Options {
				o := Options{Workers: 1, CacheSize: 256}
				if i == 0 {
					o.Cluster.Transport = transport
				}
				return o
			})
			coord, peer := nodes[0], nodes[1]

			// Four rows owned by the peer and two by the coordinator.
			spec := ownedSpec(t, coord, map[string]int{peer.url: 4, coord.url: 2})

			j, err := coord.m.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			if st := j.Status(); st.State != "done" || st.Errors != 0 {
				t.Fatalf("sweep %s with %d errored rows, want done with 0", st.State, st.Errors)
			}
			if !faulted.Load() || unanswered == 0 {
				t.Fatal("no batch was faulted")
			}
			if got := coord.m.met.proxyFallbacks.Value(); got != uint64(unanswered) {
				t.Fatalf("proxy_fallbacks_total = %d, want the %d unanswered rows", got, unanswered)
			}
			if got := coord.m.membership.ProbeFailures(); got == 0 {
				t.Fatal("the owner was never marked failed")
			}
			tr, ok := coord.m.Trace(j.ID)
			if !ok {
				t.Fatal("no trace")
			}
			own := map[int]int{}
			for _, sp := range tr.Spans {
				if sp.Node == coord.m.NodeName() {
					own[sp.Index]++
				}
			}
			for i := range j.Total() {
				if own[i] != 1 {
					t.Fatalf("row %d has %d coordinator spans, want 1", i, own[i])
				}
			}

			ref := mustNew(t, Options{Workers: 2, CacheSize: 64})
			defer ref.Close()
			rj, err := ref.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, rj)
			stream := func(m *Manager, id string) []byte {
				req, rec := newTestRequest(http.MethodGet, "/v1/sweeps/"+id+"/results", nil)
				NewHandler(m).ServeHTTP(rec, req)
				return rec.Body.Bytes()
			}
			if got, want := stream(coord.m, j.ID), stream(ref, rj.ID); !bytes.Equal(got, want) {
				t.Fatalf("failed-over stream differs from a fault-free run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestHopDialTimeoutIsPeerFault: a /v1/run that fails with a dial
// timeout is the peer's fault, although the net package reports that
// error as matching context.DeadlineExceeded. The job was not cancelled,
// so nothing of ours ended the batch: the owner is marked failed and its
// rows, which
// have no replica, run here as counted proxy fallbacks.
func TestHopDialTimeoutIsPeerFault(t *testing.T) {
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path != "/v1/run" {
			return http.DefaultTransport.RoundTrip(req)
		}
		conn, err := (&net.Dialer{Deadline: time.Now().Add(-time.Second)}).Dial("tcp", req.URL.Host)
		if err == nil {
			conn.Close()
			return nil, errors.New("a dial past its deadline connected")
		}
		return nil, err
	})
	nodes := startCluster(t, 2, func(i int) Options {
		o := Options{Workers: 2, CacheSize: 256}
		if i == 0 {
			o.Cluster.Transport = transport
		}
		return o
	})
	coord, peer := nodes[0], nodes[1]
	spec := ownedSpec(t, coord, map[string]int{peer.url: 4, coord.url: 2})

	j, err := coord.m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(); st.State != "done" || st.Errors != 0 {
		t.Fatalf("sweep %s with %d errored rows, want done with 0", st.State, st.Errors)
	}
	if got := coord.m.met.proxyFallbacks.Value(); got < 1 {
		t.Fatalf("proxy_fallbacks_total = %d, want the owner's rows counted as fallbacks", got)
	}
	if got := coord.m.membership.ProbeFailures(); got < 1 {
		t.Fatal("a dial timeout did not mark the owner failed")
	}
}

// TestHopPeerRowErrorSettlesRow: a batch line that reports an error for
// its row settles that row with the error and nothing more. The row is
// not failed over or run here, the owner is not marked failed, the other
// rows are served as usual, and the error is not cached.
func TestHopPeerRowErrorSettlesRow(t *testing.T) {
	var boom atomic.Value // the fingerprint whose answer was rewritten
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil || req.URL.Path != "/v1/run" {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		lines := bytes.SplitAfter(body, []byte("\n"))
		var rr dynring.RunResponse
		if err := dynring.ParseRunResponse(lines[0], &rr); err != nil {
			return nil, err
		}
		if boom.CompareAndSwap(nil, rr.Fingerprint) {
			lines[0] = fmt.Appendf(nil, "{\"fingerprint\":%q,\"error\":\"boom\"}\n", rr.Fingerprint)
			body = bytes.Join(lines, nil)
		}
		resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), -1
		resp.Header.Del("Content-Length")
		return resp, nil
	})
	nodes := startCluster(t, 2, func(i int) Options {
		o := Options{Workers: 2, CacheSize: 256}
		if i == 0 {
			o.Cluster.Transport = transport
		}
		return o
	})
	coord, peer := nodes[0], nodes[1]
	spec := ownedSpec(t, coord, map[string]int{peer.url: 4, coord.url: 2})

	j, err := coord.m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(); st.State != "done" || st.Errors != 1 {
		t.Fatalf("sweep %s with %d errored rows, want done with 1", st.State, st.Errors)
	}
	fp, _ := boom.Load().(string)
	for i := range j.Total() {
		row, err := j.WaitRow(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if j.fps[i] != fp {
			if row.Err != nil {
				t.Fatalf("row %d errored: %v", i, row.Err)
			}
			continue
		}
		if row.Err == nil || row.Err.Error() != "boom" || !row.proxied {
			t.Fatalf("row %d settled with error %v (proxied %v), want the peer's \"boom\"", i, row.Err, row.proxied)
		}
	}
	if got := coord.m.met.proxyFallbacks.Value(); got != 0 {
		t.Fatalf("proxy_fallbacks_total = %d, want 0", got)
	}
	if got := coord.m.Stats().Executions; got != 2 {
		t.Fatalf("coordinator executed %d rows, want only its own 2", got)
	}
	if got := coord.m.Stats().Proxied; got != 4 {
		t.Fatalf("proxied %d rows, want the peer's 4", got)
	}
	if got := coord.m.membership.ProbeFailures(); got != 0 {
		t.Fatalf("the owner was marked failed %d times for a row's own error", got)
	}
	if coord.m.cache.Contains(fp) {
		t.Fatal("the errored row's fingerprint is in the coordinator's cache")
	}
}

// TestHopCancelMidBatch: the job is cancelled while the owner's batch is
// in flight. The cancel settles every pending row with context.Canceled;
// the interrupted batches are no evidence against the owner and nothing
// runs here in their place.
func TestHopCancelMidBatch(t *testing.T) {
	held := make(chan struct{}, 1)
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/v1/run" {
			select {
			case held <- struct{}{}:
			default:
			}
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-time.After(10 * time.Second):
			}
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	nodes := startCluster(t, 2, func(i int) Options {
		o := Options{Workers: 2, CacheSize: 256}
		if i == 0 {
			o.Cluster.Transport = transport
		}
		return o
	})
	coord, peer := nodes[0], nodes[1]
	spec := ownedSpec(t, coord, map[string]int{peer.url: 4})

	j, err := coord.m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the owner")
	}
	if !coord.m.Cancel(j.ID) {
		t.Fatal("Cancel did not find the job")
	}
	waitDone(t, j)
	if st := j.Status(); st.State != "cancelled" || st.Errors != j.Total() {
		t.Fatalf("sweep %s with %d of %d errored rows, want cancelled with all", st.State, st.Errors, j.Total())
	}
	for i := range j.Total() {
		row, err := j.WaitRow(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(row.Err, context.Canceled) {
			t.Fatalf("row %d settled with %v, want context.Canceled", i, row.Err)
		}
	}
	// A row run here in a batch's place would land after the abort:
	// Close returns once every worker and batch sender has.
	coord.m.Close()
	if got := coord.m.met.proxyFallbacks.Value(); got != 0 {
		t.Fatalf("proxy_fallbacks_total = %d, want 0", got)
	}
	if got := coord.m.membership.ProbeFailures(); got != 0 {
		t.Fatalf("the owner was marked failed %d times for our own cancel", got)
	}
	if got := coord.m.Stats().Executions; got != 0 {
		t.Fatalf("coordinator executed %d of the owner's rows", got)
	}
}
