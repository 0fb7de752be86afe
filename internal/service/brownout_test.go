package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynring"
)

// primeCache executes nothing: it plants every fingerprint of spec's grid
// directly in the memory tier, simulating a grid that has fully run
// before.
func primeCache(t *testing.T, m *Manager, spec dynring.SweepSpec) {
	t.Helper()
	scenarios, err := spec.ScenarioList()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		m.cache.Put(fp, dynring.Result{Rounds: 1})
	}
}

// TestBrownoutShedsOnQueueDepth: with the scheduler backlog at the shed
// threshold, anonymous and negative-priority submissions are shed with
// ErrOverloaded while an identified tenant at default priority is still
// admitted — and a fully cached grid is admitted even for the anonymous
// tenant, because it costs no execution.
func TestBrownoutShedsOnQueueDepth(t *testing.T) {
	// Unstarted manager: no workers, so the backlog never drains under us.
	m := mustManager(t, Options{Workers: 1, CacheSize: 64,
		ShedQueueDepth: 8, Tenants: twoTenants()})

	// Below the threshold nothing is shed.
	if _, err := m.Submit(testSpec(), SubmitOptions{}); err != nil {
		t.Fatalf("anonymous submit under threshold: %v", err)
	}
	// The 8-scenario grid put the backlog at the threshold: brownout.
	if _, err := m.Submit(testSpec(), SubmitOptions{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("anonymous submit at threshold: err %v, want ErrOverloaded", err)
	}
	if _, err := m.Submit(testSpec(), SubmitOptions{Tenant: "alice", Priority: -1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("negative-priority submit under brownout: err %v, want ErrOverloaded", err)
	}
	if got := m.shed.Load(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
	// Identified tenant at default priority: never shed.
	if _, err := m.Submit(testSpec(), SubmitOptions{Tenant: "alice"}); err != nil {
		t.Fatalf("premium submit under brownout: %v", err)
	}
	// Carve-out: the same grid, fully cached, is admitted anonymously.
	primeCache(t, m, testSpec())
	if _, err := m.Submit(testSpec(), SubmitOptions{}); err != nil {
		t.Fatalf("fully cached anonymous submit under brownout: %v", err)
	}
	if got := m.shed.Load(); got != 2 {
		t.Fatalf("shed counter after carve-out = %d, want 2 (unchanged)", got)
	}
}

// TestBrownoutHTTP503RetryAfter: over HTTP a shed submission is a 503
// carrying a Retry-After hint — the contract clients key their backoff
// off — while the error body names ErrOverloaded, not a quota.
func TestBrownoutHTTP503RetryAfter(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, CacheSize: 0, ShedQueueDepth: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp := postSweepAs(t, srv, testSpec(), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: status %d, want 201", resp.StatusCode)
	}
	resp = postSweepAs(t, srv, testSpec(), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("shed submit Retry-After = %q, want \"1\"", ra)
	}
}
