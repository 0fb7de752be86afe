package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
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
