package dynring_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
)

// flakyHandler answers the first fail calls with failure (via the fail
// function), then delegates to ok.
type flakyHandler struct {
	calls atomic.Int32
	until int32
	fail  http.HandlerFunc
	ok    http.HandlerFunc
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.calls.Add(1) <= h.until {
		h.fail(w, r)
		return
	}
	h.ok(w, r)
}

// okStats serves a minimal /statsz document.
func okStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(dynring.ServiceStats{Workers: 7})
}

// TestClientRetriesTransient5xx: a 503 (mid-restart node, overloaded
// proxy) is retried with backoff until the server recovers.
func TestClientRetriesTransient5xx(t *testing.T) {
	h := &flakyHandler{until: 2, ok: okStats,
		fail: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
		}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond
	st, err := c.ServiceStats(context.Background())
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if st.Workers != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if got := h.calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s + success)", got)
	}
}

// TestClientRetriesDroppedConnection: a connection the server kills before
// responding (node crash mid-request) surfaces as a transport error and is
// retried like a 5xx.
func TestClientRetriesDroppedConnection(t *testing.T) {
	h := &flakyHandler{until: 1, ok: okStats,
		fail: func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder does not hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
		}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond
	if _, err := c.ServiceStats(context.Background()); err != nil {
		t.Fatalf("dropped connection not retried: %v", err)
	}
	if got := h.calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

// TestClientRetries429HonoringRetryAfter: a quota rejection is transient
// (headroom frees as queued work drains) and the server's Retry-After hint
// replaces the computed backoff step.
func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	h := &flakyHandler{until: 1, ok: okStats,
		fail: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"tenant quota exceeded"}`, http.StatusTooManyRequests)
		}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond // the hint, not this, must set the wait
	start := time.Now()
	if _, err := c.ServiceStats(context.Background()); err != nil {
		t.Fatalf("429 not retried: %v", err)
	}
	if got := h.calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one 429 + success)", got)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry waited %v, want >= ~1s (the Retry-After hint)", elapsed)
	}
}

// TestClientDoesNotRetry4xx: client errors are deterministic — retrying a
// bad spec can only repeat the rejection.
func TestClientDoesNotRetry4xx(t *testing.T) {
	h := &flakyHandler{until: 1 << 30, ok: okStats,
		fail: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"no such sweep"}`, http.StatusNotFound)
		}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond
	if _, err := c.SweepStatus(context.Background(), "sw-404"); err == nil {
		t.Fatal("404 did not error")
	}
	if got := h.calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx must not be retried)", got)
	}
}

// TestClientRetryDisabled: Retries < 0 means exactly one attempt.
func TestClientRetryDisabled(t *testing.T) {
	h := &flakyHandler{until: 1 << 30, ok: okStats,
		fail: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.Retries = -1
	if _, err := c.ServiceStats(context.Background()); err == nil {
		t.Fatal("permanent 503 did not error")
	}
	if got := h.calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (retries disabled)", got)
	}
}

// TestClientRetryBackoffHonorsContext: a cancelled context aborts the
// backoff sleep immediately instead of serving it out.
func TestClientRetryBackoffHonorsContext(t *testing.T) {
	h := &flakyHandler{until: 1 << 30, ok: okStats,
		fail: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := dynring.NewClient(srv.URL)
	c.RetryBaseDelay = time.Minute // a served-out backoff would hang the test
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ServiceStats(ctx)
	if err == nil {
		t.Fatal("cancelled retry did not error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored context for %v", elapsed)
	}
	if got := h.calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (context died during first backoff)", got)
	}
}

// TestClientRunScenarioOptionHeaders: RunScenario renders its options as
// the request headers POST /v1/run reads — on every attempt, so a retried
// hop stays under the same trace and tenant.
func TestClientRunScenarioOptionHeaders(t *testing.T) {
	cases := []struct {
		name      string
		tenantKey string // Client.TenantKey
		opts      []dynring.SubmitOption
		want      map[string]string // header → value; "" means absent
	}{
		{
			name: "no options",
			want: map[string]string{dynring.TraceHeader: "", "Authorization": ""},
		},
		{
			name: "trace",
			opts: []dynring.SubmitOption{dynring.WithTrace("tr-1")},
			want: map[string]string{dynring.TraceHeader: "tr-1"},
		},
		{
			name: "empty trace sends no header",
			opts: []dynring.SubmitOption{dynring.WithTrace("")},
			want: map[string]string{dynring.TraceHeader: ""},
		},
		{
			name:      "client tenant key",
			tenantKey: "sk-client",
			want:      map[string]string{"Authorization": "Bearer sk-client"},
		},
		{
			name:      "tenant option overrides client key",
			tenantKey: "sk-client",
			opts: []dynring.SubmitOption{
				dynring.WithTenant("sk-alice"), dynring.WithTrace("tr-2"),
			},
			want: map[string]string{"Authorization": "Bearer sk-alice", dynring.TraceHeader: "tr-2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seen []http.Header
			record := func(r *http.Request) { seen = append(seen, r.Header.Clone()) }
			h := &flakyHandler{until: 1,
				fail: func(w http.ResponseWriter, r *http.Request) {
					record(r)
					http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
				},
				ok: func(w http.ResponseWriter, r *http.Request) {
					record(r)
					_ = json.NewEncoder(w).Encode(dynring.RunResponse{Fingerprint: "fp"})
				}}
			srv := httptest.NewServer(h)
			defer srv.Close()

			c := dynring.NewClient(srv.URL)
			c.RetryBaseDelay = time.Millisecond
			c.TenantKey = tc.tenantKey
			rr, err := c.RunScenario(context.Background(), dynring.ScenarioSpec{Size: 8}, tc.opts...)
			if err != nil || rr.Fingerprint != "fp" {
				t.Fatalf("RunScenario = %+v, %v", rr, err)
			}
			if len(seen) != 2 {
				t.Fatalf("server saw %d attempts, want 2 (one 503 + success)", len(seen))
			}
			for attempt, hdr := range seen {
				for k, v := range tc.want {
					if got := hdr.Get(k); got != v {
						t.Errorf("attempt %d: %s = %q, want %q", attempt, k, got, v)
					}
				}
			}
		})
	}
}
