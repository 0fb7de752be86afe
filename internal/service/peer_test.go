package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
// trace and tenant headers — and add nothing but an empty User-Agent and
// "Accept-Encoding: identity", which keeps the transport from adding gzip.
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
		if want := (http.Header{"Content-Type": {"application/json"}, "User-Agent": {""}, "Accept-Encoding": {"identity"}}); !reflect.DeepEqual(s.header, want) {
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
		want := http.Header{"Content-Type": {ndjsonType}, "User-Agent": {""}, "Accept-Encoding": {"identity"},
			dynring.TraceHeader: {trace}, "Authorization": {"Bearer sk-alice"}}
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

// TestReplicateAckInteroperates: a push is acknowledged by a bare 204 —
// no body, no Content-Type, no header but the server's Date. A pusher built
// on http.Client (a node from before the lean push path, which checked for
// any 2xx and drained the body) accepts it, and the lean pusher accepts an
// older node's 200 writeJSON answer.
func TestReplicateAckInteroperates(t *testing.T) {
	nodes := startCluster(t, 2, func(int) Options {
		o := Options{Workers: 1, CacheSize: 64}
		o.Cluster.Replicas = 2
		return o
	})
	body := encodeReplicate("v2-feed", &dynring.Result{Rounds: 7, Moves: []int{1, 2}})

	req, err := http.NewRequest(http.MethodPost, nodes[1].url+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.Fatalf("an http.Client pusher got %s", resp.Status)
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent || len(ack) != 0 || resp.ContentLength != 0 {
		t.Fatalf("ack: %s, Content-Length %d, body %q; want 204 and no body", resp.Status, resp.ContentLength, ack)
	}
	// Date is the server's own: suppressing it would take w.Header(),
	// which is what the bare ack saves.
	if _, ok := resp.Header["Date"]; !ok || len(resp.Header) != 1 {
		t.Fatalf("ack header %v, want only the server's Date", resp.Header)
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
// (encode, request, acknowledgement) over a transport that answers a 204
// at once. The bound is the measured count, 9; the same push through
// http.Client took 25, and with a 200 JSON ack and a body grown from nil,
// 14.
func TestReplicationPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ack := &http.Response{StatusCode: http.StatusNoContent, Status: "204 No Content", Header: http.Header{}, Body: http.NoBody}
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		req.Body.Close()
		return ack, nil
	})
	m := &Manager{peers: newPeerClient(rt), proxyTimeout: time.Second}
	res := dynring.Result{Outcome: 1, Rounds: 120, Explored: true, TerminatedAt: []int{100, 120},
		Terminated: 2, Moves: []int{57, 61}, TotalMoves: 118}
	const fp = "v2-0123456789abcdef0123456789abcdef"
	push := func() {
		if err := m.postReplicate("http://127.0.0.1:1", encodeReplicate(fp, &res)); err != nil {
			t.Fatal(err)
		}
	}
	push() // parse and cache the route's URL
	if n := testing.AllocsPerRun(200, push); n > 9 {
		t.Fatalf("one replication push allocated %.1f times, want <= 9", n)
	}
}

// TestReplicationRoundTripAllocs bounds one replication push over loopback
// through NewHandler, counting both sides: encode, request and ack on the
// pusher, and on the receiver the server's request handling, the decode
// and the adoption of a fresh envelope into a full memory tier. The bound
// is the measured count, 71, with no slack: 10 runs at 1 and 4 CPUs all
// read exactly 71. Before readBody closed the drained body, the server's
// post-handler discard of it took one more (72); a 200 JSON ack, the
// transport's own Accept-Encoding, a body grown from nil and an LRU node
// per Put took 92.
func TestReplicationRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	// A one-member replicated cluster: it accepts pushes and probes no one.
	rm := mustNew(t, Options{Workers: 1, CacheSize: 8, Cluster: ClusterOptions{
		Self: self, Peers: []string{self}, Replicas: 2, ProbeInterval: time.Hour,
	}})
	defer rm.Close()
	srv := &http.Server{Handler: NewHandler(rm)}
	go srv.Serve(ln)
	defer srv.Close()

	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	m := &Manager{peers: newPeerClient(tr), proxyTimeout: 5 * time.Second}
	res := dynring.Result{Outcome: 1, Rounds: 120, Explored: true, TerminatedAt: []int{100, 120},
		Terminated: 2, Moves: []int{57, 61}, TotalMoves: 118}
	fps := make([]string, 64)
	for i := range fps {
		fps[i] = fmt.Sprintf("v2-%032x", i)
	}
	next := 0
	push := func() {
		fp := fps[next%len(fps)]
		next++
		if err := m.postReplicate(self, encodeReplicate(fp, &res)); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 { // open the connection and fill the memory tier
		push()
	}
	n := testing.AllocsPerRun(500, push)
	if rm.met.replAdopted.Value() != uint64(next) {
		t.Fatalf("%d envelopes adopted for %d pushes", rm.met.replAdopted.Value(), next)
	}
	if n > 71 {
		t.Fatalf("one replication round trip allocated %.1f times, want <= 71", n)
	}
}
