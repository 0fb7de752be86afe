package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// sentRequest is what a recording transport saw of one outbound request.
type sentRequest struct {
	method, path  string
	header        http.Header
	contentLength int64
	body          []byte
}

// recordingTransport records every node-to-node request except probes and
// forwards it to the default transport.
type recordingTransport struct {
	mu   sync.Mutex
	sent []sentRequest
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/cluster" {
		s := sentRequest{method: req.Method, path: req.URL.Path, header: req.Header.Clone(),
			contentLength: req.ContentLength}
		if req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			s.body, _ = io.ReadAll(body)
		}
		rt.mu.Lock()
		rt.sent = append(rt.sent, s)
		rt.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (rt *recordingTransport) requests(path string) []sentRequest {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []sentRequest
	for _, s := range rt.sent {
		if s.path == path {
			out = append(out, s)
		}
	}
	return out
}

// TestPeerRequestsKeepWireForm: replication pushes and proxy batches keep
// the wire form every node reads — method, path, Content-Type, a
// Content-Length equal to the body, the encoding/json body bytes, and the
// trace and tenant headers — and add nothing but an empty User-Agent.
func TestPeerRequestsKeepWireForm(t *testing.T) {
	rts := []*recordingTransport{{}, {}}
	tenants := []TenantConfig{{Name: "alice", Key: "sk-alice", Weight: 1}}
	nodes := startCluster(t, 2, func(i int) Options {
		o := Options{Workers: 2, CacheSize: 256, Tenants: tenants}
		o.Cluster.Replicas, o.Cluster.Transport = 2, rts[i]
		return o
	})
	const trace = "00000000feedc0de"
	spec := testSpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6}
	j, err := nodes[0].m.Submit(spec, SubmitOptions{TraceID: trace, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(); st.Errors != 0 {
		t.Fatalf("sweep had %d errored rows", st.Errors)
	}
	executions := totalExecutions(nodes)
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		pushes := len(rts[0].requests("/v1/replicate")) + len(rts[1].requests("/v1/replicate"))
		if uint64(pushes) == executions {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d replication pushes for %d executions", pushes, executions)
		}
	}
	inJob := map[string]bool{}
	for _, fp := range j.fps {
		inJob[fp] = true
	}
	// A known positive length is what keeps the transport from chunking.
	checkLength := func(s sentRequest) {
		t.Helper()
		if s.method != http.MethodPost || s.contentLength != int64(len(s.body)) || len(s.body) == 0 {
			t.Fatalf("%s %s: Content-Length %d for %d body bytes", s.method, s.path, s.contentLength, len(s.body))
		}
	}

	pushes := append(rts[0].requests("/v1/replicate"), rts[1].requests("/v1/replicate")...)
	for _, s := range pushes {
		checkLength(s)
		if want := (http.Header{"Content-Type": {"application/json"}, "User-Agent": {""}}); !reflect.DeepEqual(s.header, want) {
			t.Fatalf("push header %v, want %v", s.header, want)
		}
		env, err := decodeReplicate(s.body)
		if err != nil || !inJob[env.Fingerprint] {
			t.Fatalf("push body %s: fingerprint %q, %v", s.body, env.Fingerprint, err)
		}
		if want, _ := json.Marshal(env); !bytes.Equal(s.body, want) {
			t.Fatalf("push body\n %s\nis not encoding/json's\n %s", s.body, want)
		}
	}

	batches := rts[0].requests("/v1/run")
	if len(batches) == 0 || len(rts[1].requests("/v1/run")) != 0 {
		t.Fatalf("coordinator sent %d batches, the other node %d", len(batches), len(rts[1].requests("/v1/run")))
	}
	for _, s := range batches {
		checkLength(s)
		want := http.Header{"Content-Type": {ndjsonType}, "User-Agent": {""}, dynring.TraceHeader: {trace},
			"Authorization": {"Bearer sk-alice"}}
		if !reflect.DeepEqual(s.header, want) {
			t.Fatalf("batch header %v, want %v", s.header, want)
		}
		for _, line := range bytes.SplitAfter(s.body, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rr dynring.RunRequest
			if err := json.Unmarshal(line, &rr); err != nil {
				t.Fatal(err)
			}
			sc, err := rr.Scenario.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			fp, err := sc.Fingerprint()
			if err != nil || !inJob[fp] {
				t.Fatalf("batch line %s: fingerprint %q not in the job (%v)", line, fp, err)
			}
			if want, _ := json.Marshal(rr); !bytes.Equal(line, append(want, '\n')) {
				t.Fatalf("batch line\n %s\nis not encoding/json's\n %s", line, want)
			}
		}
	}
}

// TestReplicateAckInteroperates: a pusher built on http.Client (a node
// from before the lean push path) reads the constant acknowledgement as it
// read writeJSON's, and the lean pusher accepts writeJSON's answer.
func TestReplicateAckInteroperates(t *testing.T) {
	nodes := startCluster(t, 2, func(int) Options {
		o := Options{Workers: 1, CacheSize: 64}
		o.Cluster.Replicas = 2
		return o
	})
	body := appendReplicate(nil, "v2-feed", &dynring.Result{Rounds: 7, Moves: []int{1, 2}})

	req, err := http.NewRequest(http.MethodPost, nodes[1].url+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var oldAck bytes.Buffer
	_ = json.NewEncoder(&oldAck).Encode(map[string]string{"status": "ok"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" ||
		!bytes.Equal(ack, oldAck.Bytes()) || resp.ContentLength != int64(len(ack)) {
		t.Fatalf("ack: %s, Content-Type %q, Content-Length %d, body %q; want 200, application/json, %q",
			resp.Status, resp.Header.Get("Content-Type"), resp.ContentLength, ack, oldAck.Bytes())
	}
	if _, ok := resp.Header["Date"]; ok {
		t.Fatalf("ack carries a Date header: %v", resp.Header)
	}
	if res, ok := nodes[1].m.cache.Get("v2-feed"); !ok || res.Rounds != 7 {
		t.Fatalf("pushed envelope not adopted: %+v, %v", res, ok)
	}

	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer old.Close()
	if err := newPeerClient(nil).push(context.Background(), old.URL, "/v1/replicate", body); err != nil {
		t.Fatalf("lean push to a writeJSON acknowledger: %v", err)
	}
}

// TestDecodeReplicateCopiesOutOfBody: /v1/replicate recycles its body
// buffer once decoded, which is safe only because neither the fast path
// nor the encoding/json fallback keeps a reference into the body.
func TestDecodeReplicateCopiesOutOfBody(t *testing.T) {
	res := dynring.Result{Rounds: 9, TerminatedAt: []int{3, 4}, Moves: []int{5, 6, 7}, Terminated: 2}
	for _, in := range [][]byte{
		appendReplicate(nil, "v2-canonical", &res),
		// An escape and a repeated key send these down the fallback.
		[]byte(`{"fingerprint":"v2-\u0041","result":{"Moves":[1,2],"TerminatedAt":[8]}}`),
		[]byte(`{"fingerprint":"v2-a","fingerprint":"v2-repeated","result":{"Moves":[1],"Moves":[2,3]}}`),
	} {
		got, err := decodeReplicate(in)
		if err != nil {
			t.Fatal(err)
		}
		want := replicateRequest{Fingerprint: strings.Clone(got.Fingerprint), Result: got.Result.Clone()}
		for i := range in {
			in[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("overwriting the body changed the decoded envelope: %+v, was %+v", got, want)
		}
	}
}

// TestAntiEntropyRejectsTrailingBytes: an anti-entropy answer with bytes
// after its JSON value is refused, not adopted — for an envelope as for a
// key listing.
func TestAntiEntropyRejectsTrailingBytes(t *testing.T) {
	var junkPath atomic.Value // the path whose answers get junk appended
	junkPath.Store("")
	junk := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err == nil && req.URL.Path == junkPath.Load().(string) {
			resp.Body = struct {
				io.Reader
				io.Closer
			}{io.MultiReader(resp.Body, strings.NewReader("junk")), resp.Body}
			resp.ContentLength = -1
		}
		return resp, err
	})
	nodes := startCluster(t, 2, func(int) Options {
		o := Options{Workers: 1, CacheSize: 64, DiskDir: t.TempDir()}
		o.Cluster.Replicas, o.Cluster.Transport = 2, junk
		return o
	})
	const fp = "v2-0123abcd"
	nodes[0].m.AdoptEnvelope(fp, dynring.Result{Rounds: 5, Moves: []int{1}})
	for start := time.Now(); len(nodes[0].m.DurableKeys()) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("envelope never reached node 0's disk tier")
		}
	}
	for _, path := range []string{"/v1/antientropy/entry", "/v1/antientropy/keys"} {
		junkPath.Store(path)
		if n := nodes[1].m.AntiEntropyNow(); n != 0 {
			t.Fatalf("junk after %s answers: %d repairs, want 0", path, n)
		}
		if _, ok := nodes[1].m.cache.Get(fp); ok {
			t.Fatalf("junk after %s answers: the envelope was adopted", path)
		}
	}
	junkPath.Store("")
	if n := nodes[1].m.AntiEntropyNow(); n != 1 {
		t.Fatalf("clean answers: %d repairs, want 1", n)
	}
}

// TestReplicationPushAllocs bounds the client side of one replication push
// (encode, request, acknowledgement) over a transport that answers at
// once. The bound is the lean path's count, 14; the same push through
// http.Client took 25.
func TestReplicationPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ack := &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{}}
	var ackBody bytes.Reader
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		req.Body.Close()
		ackBody.Reset(replicateAck)
		ack.Body = io.NopCloser(&ackBody)
		return ack, nil
	})
	m := &Manager{peers: newPeerClient(rt), proxyTimeout: time.Second}
	res := dynring.Result{Outcome: 1, Rounds: 120, Explored: true, TerminatedAt: []int{100, 120},
		Terminated: 2, Moves: []int{57, 61}, TotalMoves: 118}
	const fp = "v2-0123456789abcdef0123456789abcdef"
	push := func() {
		if err := m.postReplicate("http://127.0.0.1:1", appendReplicate(nil, fp, &res)); err != nil {
			t.Fatal(err)
		}
	}
	push() // parse and cache the route's URL
	if n := testing.AllocsPerRun(200, push); n > 14 {
		t.Fatalf("one replication push allocated %.1f times, want <= 14", n)
	}
}
