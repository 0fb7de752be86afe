package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynring"
)

// twoTenants is the standard test config: alice carries triple bob's
// weight and a tight queue quota.
func twoTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "alice", Key: "sk-alice", Weight: 3, MaxQueued: 64},
		{Name: "bob", Key: "sk-bob", Weight: 1},
	}
}

// postSweepAs POSTs a spec with the given extra headers and returns the
// raw response (caller closes the body).
func postSweepAs(t *testing.T, srv *httptest.Server, spec dynring.SweepSpec, hdr map[string]string) *http.Response {
	t.Helper()
	buf, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sweeps", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdmissionAuth: with tenants configured, work-creating endpoints
// require a configured key (Bearer or X-Dynring-Tenant), reads stay open,
// and without tenants every request is the anonymous tenant.
func TestAdmissionAuth(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 16, Tenants: twoTenants()})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := testSpec()
	for name, hdr := range map[string]map[string]string{
		"no key":    nil,
		"wrong key": {"Authorization": "Bearer sk-mallory"},
	} {
		resp := postSweepAs(t, srv, spec, hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s: status %d, want 401", name, resp.StatusCode)
		}
	}
	// POST /v1/run is equally gated (it creates work on the proxy path).
	resp, err := http.Post(srv.URL+"/v1/run", "application/json",
		strings.NewReader(`{"scenario":{"size":6,"algorithm":"KnownNNoChirality"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/run: status %d, want 401", resp.StatusCode)
	}

	var created dynring.JobStatus
	for name, hdr := range map[string]map[string]string{
		"bearer":        {"Authorization": "Bearer sk-alice"},
		"tenant header": {dynring.TenantHeader: "sk-alice"},
	} {
		resp := postSweepAs(t, srv, spec, hdr)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: status %d, want 201", name, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if created.Tenant != "alice" {
			t.Fatalf("%s: job tenant %q, want alice", name, created.Tenant)
		}
	}
	// Reads need no credentials: observability must survive a lost key.
	if body := streamBody(t, srv, created.ID); len(body) == 0 {
		t.Fatal("unauthenticated results stream empty")
	}

	// Without tenants, keyless submissions run as the anonymous tenant.
	anon := mustNew(t, Options{Workers: 1, CacheSize: 0})
	defer anon.Close()
	asrv := httptest.NewServer(NewHandler(anon))
	defer asrv.Close()
	st := postSweep(t, asrv, spec)
	if st.Tenant != AnonymousTenant {
		t.Fatalf("tenant without config = %q, want %q", st.Tenant, AnonymousTenant)
	}
}

// TestQuota429RetryAfter: a submission past MaxQueued is rejected with
// 429 plus the Retry-After hint, and MaxConcurrent bounds live jobs.
func TestQuota429RetryAfter(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 0, Tenants: []TenantConfig{
		{Name: "alice", Key: "sk-alice", Weight: 1, MaxQueued: 4},
	}})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// testSpec expands to 8 scenarios > MaxQueued 4: rejected up front.
	resp := postSweepAs(t, srv, testSpec(), map[string]string{"Authorization": "Bearer sk-alice"})
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q", ra, "1")
	}
	if !strings.Contains(string(raw), "queued scenarios") {
		t.Fatalf("429 body does not name the quota: %s", raw)
	}

	// MaxConcurrent: with one admitted-and-unsettled job, the next is
	// rejected. An unstarted manager keeps the first job alive forever.
	um := mustManager(t, Options{Workers: 1, CacheSize: 0, Tenants: []TenantConfig{
		{Name: "carol", Key: "sk-carol", Weight: 1, MaxConcurrent: 1},
	}})
	if _, err := um.Submit(testSpec(), SubmitOptions{Tenant: "carol"}); err != nil {
		t.Fatal(err)
	}
	if _, err := um.Submit(testSpec(), SubmitOptions{Tenant: "carol"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second concurrent job error = %v, want ErrQuotaExceeded", err)
	}
}

// TestCrossTenantExactlyOnce: the result cache is deliberately
// tenant-agnostic — an identical grid submitted by a second tenant is
// served from cache, executing nothing.
func TestCrossTenantExactlyOnce(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 1024, Tenants: twoTenants()})
	defer m.Close()

	ja, err := m.Submit(testSpec(), SubmitOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ja)
	jb, err := m.Submit(testSpec(), SubmitOptions{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jb)

	st := m.Stats()
	if st.Executions != uint64(ja.Total()) {
		t.Fatalf("executions = %d, want %d (bob's grid must be all cache hits)",
			st.Executions, ja.Total())
	}
	if jb.Status().CacheHits != jb.Total() {
		t.Fatalf("bob's cache hits = %d/%d", jb.Status().CacheHits, jb.Total())
	}
}

// TestResultsResumeFrom: GET ?from=N serves exactly the suffix of the
// full stream starting at grid index N, and out-of-range cursors are 400s.
func TestResultsResumeFrom(t *testing.T) {
	m := mustNew(t, Options{Workers: 4, CacheSize: 64})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	st := postSweep(t, srv, testSpec())
	full := streamBody(t, srv, st.ID)
	lines := bytes.SplitAfter(full, []byte("\n"))

	for _, from := range []int{0, 1, st.Total / 2, st.Total - 1, st.Total} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?from=%d", srv.URL, st.ID, from))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("from=%d: status %d", from, resp.StatusCode)
		}
		want := bytes.Join(lines[from:], nil)
		if !bytes.Equal(body, want) {
			t.Fatalf("from=%d: resumed stream is not the full stream's suffix:\n%s\nvs\n%s", from, body, want)
		}
	}

	for _, bad := range []string{"-1", fmt.Sprint(st.Total + 1), "abc", "1.5"} {
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/results?from=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("from=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStatszTenantsSection: configured tenants appear in /statsz with
// their weights and admission counters; without config the key is absent.
func TestStatszTenantsSection(t *testing.T) {
	// carol is "-tenants carol:sk-carol" (weight 0) and dave a negative
	// weight: /statsz must report the weight 1 the scheduler uses.
	tenants := append(twoTenants(),
		TenantConfig{Name: "carol", Key: "sk-carol"},
		TenantConfig{Name: "dave", Key: "sk-dave", Weight: -2})
	m := mustNew(t, Options{Workers: 2, CacheSize: 16, Tenants: tenants})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp := postSweepAs(t, srv, testSpec(), map[string]string{"Authorization": "Bearer sk-alice"})
	var st dynring.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	streamBody(t, srv, st.ID) // wait for settle

	var stats dynring.ServiceStats
	sr, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(stats.Tenants) != 4 {
		t.Fatalf("tenants section has %d entries, want 4: %+v", len(stats.Tenants), stats.Tenants)
	}
	byName := map[string]dynring.TenantStat{}
	for _, ts := range stats.Tenants {
		byName[ts.Name] = ts
	}
	if byName["alice"].Weight != 3 || byName["bob"].Weight != 1 ||
		byName["carol"].Weight != 1 || byName["dave"].Weight != 1 {
		t.Fatalf("weights not reported: %+v", stats.Tenants)
	}
	if byName["alice"].Admitted != 1 || byName["alice"].ServedTasks == 0 {
		t.Fatalf("alice counters: %+v", byName["alice"])
	}

	// No tenant config → no tenants key (the pre-admission document).
	anon := mustNew(t, Options{Workers: 1, CacheSize: 0})
	defer anon.Close()
	asrv := httptest.NewServer(NewHandler(anon))
	defer asrv.Close()
	raw, err := http.Get(asrv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if bytes.Contains(doc, []byte(`"tenants"`)) {
		t.Fatalf("anonymous /statsz leaks a tenants section: %s", doc)
	}
}

// TestParseTenants pins the -tenants grammar: inline entries with two to
// five fields, whole decimal numbers only (whitespace around them is
// ignored), no inline name starting with '@', and the @file form; every
// parsed set passes ValidateTenants.
func TestParseTenants(t *testing.T) {
	file := t.TempDir() + "/tenants.json"
	if err := os.WriteFile(file, []byte(`[{"name":"gold","key":"k","weight":2,"max_queued":9}]`), 0o600); err != nil {
		t.Fatal(err)
	}
	ok := []struct {
		in   string
		want []TenantConfig
	}{
		{"", nil},
		{" , ", nil},
		{"gold:k", []TenantConfig{{Name: "gold", Key: "k"}}},
		{"gold:k:3", []TenantConfig{{Name: "gold", Key: "k", Weight: 3}}},
		{"alice:sk-alice:3:500:8, bob:sk-bob:1", []TenantConfig{
			{Name: "alice", Key: "sk-alice", Weight: 3, MaxQueued: 500, MaxConcurrent: 8},
			{Name: "bob", Key: "sk-bob", Weight: 1},
		}},
		{"gold:k:-1:+2:007", []TenantConfig{{Name: "gold", Key: "k", Weight: -1, MaxQueued: 2, MaxConcurrent: 7}}},
		{"alice:sk:3, bob:sk2: 1", []TenantConfig{{Name: "alice", Key: "sk", Weight: 3}, {Name: "bob", Key: "sk2", Weight: 1}}},
		{"gold:k: 3 :\t4", []TenantConfig{{Name: "gold", Key: "k", Weight: 3, MaxQueued: 4}}},
		{"@" + file, []TenantConfig{{Name: "gold", Key: "k", Weight: 2, MaxQueued: 9}}},
	}
	for _, c := range ok {
		got, err := ParseTenants(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseTenants(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{
		"gold:k:3x", "gold:k:3.5", "gold:k:3 4", "gold:k:0x10", "gold:k: ", "gold:k:",
		"gold:k:1:2:3:4", "gold", "gold:k:99999999999999999999",
		":k", "gold:", "anonymous:k", "gold:k,gold:k2", "gold:k,silver:k",
		"gold:k:1:-1", "gold:k:1:0:-1",
		",@b:k", "a:k,@b:k2", "a:k, @b:k2",
		"@" + file + ".missing",
	} {
		if got, err := ParseTenants(in); err == nil {
			t.Errorf("ParseTenants(%q) = %+v, want an error", in, got)
		}
	}
}

// FuzzParseTenants: every inline -tenants value ParseTenants accepts
// re-renders as name:key:weight:maxQueued:maxConcurrent entries that
// parse back to an equal tenant set.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"alice:sk-alice:3:500:8,bob:sk-bob:1", "gold:k", " a b : c d :-2", "x:y:+0:00,,z:w",
		"gold:k:3x", "gold:k:0x10", " @x:k", "a:k,@b:k2", ",@b:k", "a:k: 3 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if strings.HasPrefix(strings.TrimSpace(v), "@") {
			return // a file path, not an inline value
		}
		tenants, err := ParseTenants(v)
		if err != nil {
			return
		}
		entries := make([]string, len(tenants))
		for i, tc := range tenants {
			entries[i] = fmt.Sprintf("%s:%s:%d:%d:%d", tc.Name, tc.Key, tc.Weight, tc.MaxQueued, tc.MaxConcurrent)
		}
		rendered := strings.Join(entries, ",")
		again, err := ParseTenants(rendered)
		if err != nil {
			t.Fatalf("ParseTenants(%q) accepted %+v, but its rendering %q fails: %v", v, tenants, rendered, err)
		}
		if !reflect.DeepEqual(again, tenants) {
			t.Fatalf("ParseTenants(%q) = %+v, but its rendering %q parses to %+v", v, tenants, rendered, again)
		}
	})
}

// FuzzSweepRequestParsers drives NewHandler with three request values:
// the priority and deadline headers older clients still send on POST
// /v1/sweeps, and the ?from= resume cursor of a results stream. The
// service ignores both headers, so a one-row submission whose row is
// already cached answers 201 whatever they say. On a settled job, ?from=
// answers 200 with exactly the byte suffix of the full stream that starts
// at row from, or 400. Nothing ever answers a 5xx or panics.
func FuzzSweepRequestParsers(f *testing.F) {
	m := mustNew(f, Options{Workers: 1, CacheSize: 64})
	f.Cleanup(m.Close)
	h := NewHandler(m)
	grid := testSpec()
	one := grid
	one.Algorithms, one.Sizes, one.Seeds = one.Algorithms[:1], one.Sizes[:1], one.Seeds[:1]
	body, err := json.Marshal(one)
	if err != nil {
		f.Fatal(err)
	}
	// settle submits the grid (cached after its first run) and waits for it.
	settle := func(tb testing.TB) *Job {
		j, err := m.Submit(grid, SubmitOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := j.Wait(ctx); err != nil {
			tb.Fatal(err)
		}
		return j
	}
	total := settle(f).Total()

	for _, v := range []string{"-5s", "0", "1e3s", "+1", " 3", "9223372036854775808", strconv.Itoa(total)} {
		f.Add(v, v, v)
	}
	f.Add("5", "30s", "")
	f.Fuzz(func(t *testing.T, priority, deadline, from string) {
		req, rec := newTestRequest(http.MethodPost, "/v1/sweeps", body)
		req.Header.Set("X-Dynring-Priority", priority)
		req.Header.Set("X-Dynring-Deadline", deadline)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("POST with priority %q, deadline %q: status %d, want 201: %s", priority, deadline, rec.Code, rec.Body)
		}

		// A settled job of its own: a fixed one would leave the bounded
		// job history as the submissions above pile up.
		results := "/v1/sweeps/" + settle(t).ID + "/results"
		req, rec = newTestRequest(http.MethodGet, results, nil)
		h.ServeHTTP(rec, req)
		full := rec.Body.Bytes()
		starts := []int{0} // starts[n] is the byte offset of row n
		for i, b := range full {
			if b == '\n' {
				starts = append(starts, i+1)
			}
		}
		if rec.Code != http.StatusOK || len(starts) != total+1 {
			t.Fatalf("full stream: status %d, %d rows for %d", rec.Code, len(starts)-1, total)
		}
		req, rec = newTestRequest(http.MethodGet, results+"?"+url.Values{"from": {from}}.Encode(), nil)
		h.ServeHTTP(rec, req)
		n, err := strconv.Atoi(from)
		if from == "" {
			n, err = 0, nil
		}
		if err != nil || n < 0 || n > total {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("from=%q: status %d, want 400: %s", from, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), full[starts[n]:]) {
			t.Fatalf("from=%q: status %d, body %q; want 200 and the stream from row %d", from, rec.Code, rec.Body, n)
		}
	})
}
