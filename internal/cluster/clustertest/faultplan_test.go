package clustertest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// get issues one GET through the plan's transport for party from.
func get(t *testing.T, p *FaultPlan, from, url string) (*http.Response, error) {
	t.Helper()
	c := &http.Client{Transport: p.Transport(from)}
	resp, err := c.Get(url)
	if err == nil {
		resp.Body.Close()
	}
	return resp, err
}

func TestFaultPlanKillAndRevive(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(1)

	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("healthy request failed: %v", err)
	}
	p.Kill(srv.URL)
	if _, err := get(t, p, "a", srv.URL); err == nil {
		t.Fatal("request to a killed node succeeded")
	}
	// Killing blocks both directions: the victim cannot send either.
	p.Revive(srv.URL)
	p.Kill("a")
	if _, err := get(t, p, "a", srv.URL); err == nil {
		t.Fatal("request from a killed node succeeded")
	}
	p.Revive("a")
	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("request after revive failed: %v", err)
	}
}

func TestFaultPlanKillAt(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(1)
	p.KillAt(3, srv.URL)

	for i := 1; i <= 2; i++ {
		if _, err := get(t, p, "a", srv.URL); err != nil {
			t.Fatalf("request at step %d failed before the scheduled kill: %v", i, err)
		}
	}
	if _, err := get(t, p, "a", srv.URL); err == nil {
		t.Fatal("request at the kill step succeeded")
	}
	if _, err := get(t, p, "a", srv.URL); err == nil {
		t.Fatal("request after the kill step succeeded")
	}
	if got := p.Step(); got != 4 {
		t.Fatalf("Step() = %d, want 4", got)
	}
}

func TestFaultPlanPartitionAndHeal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(1)
	p.Partition("a", srv.URL)

	if _, err := get(t, p, "a", srv.URL); err == nil {
		t.Fatal("request across a partition succeeded")
	}
	// The cut is link-local: an unrelated party still gets through.
	if _, err := get(t, p, "b", srv.URL); err != nil {
		t.Fatalf("unrelated party was cut too: %v", err)
	}
	p.Heal("a", srv.URL)
	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("request after heal failed: %v", err)
	}
}

func TestFaultPlanDropEveryN(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(1)
	p.DropEveryN(3)

	for i := 1; i <= 9; i++ {
		_, err := get(t, p, "a", srv.URL)
		if i%3 == 0 && err == nil {
			t.Fatalf("request %d should have been dropped", i)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("request %d dropped unexpectedly: %v", i, err)
		}
	}
	p.DropEveryN(0)
	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("request after disabling drops failed: %v", err)
	}
}

func TestFaultPlanSlowProxy(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(1)
	p.SlowProxy(50 * time.Millisecond)

	start := time.Now()
	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("slowed request failed: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("slowed request took %v, want >= 50ms", d)
	}
	p.SlowProxy(0)
}

// TestFaultPlanDropCountsOnlyAdmittedRequests pins the precedence
// between Partition/Heal and DropEveryN: a request failed by a cut link
// never advances the drop counter (the cut ruling runs first), so the
// drop cadence after a Heal continues deterministically from where the
// admitted traffic left it — scripted chaos schedules stay reproducible
// no matter how long a partition lasted.
func TestFaultPlanDropCountsOnlyAdmittedRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(1)
	p.DropEveryN(2)

	// Request 1 is considered (seen=1) and passes.
	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("request 1 failed: %v", err)
	}
	// Partitioned requests fail without being considered by the counter.
	p.Partition("a", srv.URL)
	for i := 0; i < 3; i++ {
		if _, err := get(t, p, "a", srv.URL); err == nil {
			t.Fatal("request across a partition succeeded")
		}
	}
	p.Heal("a", srv.URL)
	// The very next admitted request is the counter's 2nd: dropped. Had
	// the cut requests advanced it, this one would pass instead.
	if _, err := get(t, p, "a", srv.URL); err == nil {
		t.Fatal("first request after heal should be the 2nd admitted and dropped")
	}
	if _, err := get(t, p, "a", srv.URL); err != nil {
		t.Fatalf("3rd admitted request dropped unexpectedly: %v", err)
	}
}

// TestFaultPlanSlowPrecedence pins SlowProxy/SlowNode interaction with
// the failure rules: a cut or killed link errors immediately with no
// delay spent, and overlapping slow faults impose the largest applicable
// delay, not the sum. Ruled through admit directly so the assertions are
// on the plan's verdicts, not on wall-clock sleeps.
func TestFaultPlanSlowPrecedence(t *testing.T) {
	p := NewFaultPlan(1)
	p.SlowProxy(20 * time.Millisecond)
	p.SlowNode("b", 50*time.Millisecond)

	if d, err := p.admit("a", "b", "/x"); err != nil || d != 50*time.Millisecond {
		t.Fatalf("slowed node under SlowProxy: delay %v err %v, want max(20ms, 50ms) = 50ms", d, err)
	}
	// Directional coverage: from the slowed party, and on untouched links.
	if d, err := p.admit("b", "c", "/x"); err != nil || d != 50*time.Millisecond {
		t.Fatalf("request from slowed node: delay %v err %v, want 50ms", d, err)
	}
	if d, err := p.admit("a", "c", "/x"); err != nil || d != 20*time.Millisecond {
		t.Fatalf("unslowed link: delay %v err %v, want the global 20ms", d, err)
	}
	// A partition beats every slow fault: fail fast, never delay-then-fail.
	p.Partition("a", "b")
	if d, err := p.admit("a", "b", "/x"); err == nil || d != 0 {
		t.Fatalf("cut link: delay %v err %v, want an immediate error", d, err)
	}
	p.Heal("a", "b")
	p.SlowNode("b", 0)
	if d, err := p.admit("a", "b", "/x"); err != nil || d != 20*time.Millisecond {
		t.Fatalf("after lifting SlowNode: delay %v err %v, want 20ms", d, err)
	}
}

// TestFaultPlanSlowNodeHonorsContext: a request cancelled mid-delay
// returns the context's error without ever reaching the server — the
// property slow-owner failover leans on (a timed-out batch must never be
// delivered to the slow owner).
func TestFaultPlanSlowNodeHonorsContext(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()
	p := NewFaultPlan(1)
	p.SlowNode(srv.URL, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &http.Client{Transport: p.Transport("a")}
	start := time.Now()
	if _, err := c.Do(req); err == nil {
		t.Fatal("cancelled slowed request succeeded")
	}
	if d := time.Since(start); d >= 10*time.Second {
		t.Fatalf("cancellation waited out the full delay (%v)", d)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("server saw %d requests; a cancelled delayed request must never be delivered", got)
	}
}

func TestFaultPlanObserverAndSeed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewFaultPlan(42)
	var paths []string
	p.OnRequest(func(from, to, path string) {
		if from == "a" {
			paths = append(paths, path)
		}
	})
	if _, err := get(t, p, "a", srv.URL+"/v1/antientropy/keys"); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "/v1/antientropy/keys" {
		t.Fatalf("observer saw %v, want the one keys fetch", paths)
	}

	// Same seed, same choice sequence: a failing chaos run reproduces.
	a, b := NewFaultPlan(7), NewFaultPlan(7)
	for i := 0; i < 16; i++ {
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}
