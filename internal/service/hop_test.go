package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"dynring"
)

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
			var seeds []int64
			owned := map[string]int{}
			for s := int64(1); owned[peer.url] < 4 || owned[""] < 2; s++ {
				spec := testSpec()
				spec.Algorithms, spec.Sizes, spec.Seeds = spec.Algorithms[:1], spec.Sizes[:1], []int64{s}
				scs, err := spec.ScenarioList()
				if err != nil {
					t.Fatal(err)
				}
				fp, err := scs[0].Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if owner, _ := coord.m.routeFor(fp); (owner == peer.url && owned[peer.url] < 4) || (owner == "" && owned[""] < 2) {
					owned[owner]++
					seeds = append(seeds, s)
				}
			}
			spec := testSpec()
			spec.Algorithms, spec.Sizes, spec.Seeds = spec.Algorithms[:1], spec.Sizes[:1], seeds

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
