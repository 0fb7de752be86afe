package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeProbe is a scriptable prober: per-URL responses, call counting, and
// an optional per-URL artificial RTT (the gray-failure knob). Like the
// HTTP prober it honours ctx, so an RTT past the probe timeout fails the
// probe.
type fakeProbe struct {
	mu    sync.Mutex
	fail  map[string]bool
	slow  map[string]time.Duration
	calls map[string]int
}

func newFakeProbe() *fakeProbe {
	return &fakeProbe{fail: map[string]bool{}, slow: map[string]time.Duration{}, calls: map[string]int{}}
}

func (f *fakeProbe) probe(ctx context.Context, url string) error {
	f.mu.Lock()
	f.calls[url]++
	fail, delay := f.fail[url], f.slow[url]
	f.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if fail {
		return errors.New("connection refused")
	}
	return nil
}

func (f *fakeProbe) setSlow(url string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slow[url] = d
}

func (f *fakeProbe) setFail(url string, v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail[url] = v
}

func (f *fakeProbe) callCount(url string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[url]
}

// newTestMembership builds an unstarted membership with a scripted prober
// and a fast probe interval; tests drive ticks by calling probeDue and
// waiting for in-flight probes.
func newTestMembership(t *testing.T, probe *fakeProbe, peers ...string) *Membership {
	t.Helper()
	m := NewMembership(Config{
		Self:          "http://self:1",
		Peers:         peers,
		ProbeInterval: 10 * time.Millisecond,
		DeadAfter:     3,
		Probe:         probe.probe,
	})
	return m
}

// settle waits until no probe is in flight and cond holds.
func settle(t *testing.T, m *Membership, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		busy := false
		for _, p := range m.peers {
			busy = busy || p.probing
		}
		m.mu.Unlock()
		if !busy && cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("membership did not settle")
}

func state(m *Membership, url string) State {
	for _, p := range m.Snapshot() {
		if p.URL == url {
			return p.State
		}
	}
	return -1 // not a member
}

// TestMembershipBootstrapAndStates: configured peers start suspect, go
// alive on a successful probe, back to suspect on one failure, dead after
// DeadAfter consecutive failures, and alive again on recovery. A dead peer
// is probed on every tick, like any other.
func TestMembershipBootstrapAndStates(t *testing.T) {
	probe := newFakeProbe()
	m := newTestMembership(t, probe, "http://a:1", "http://self:1")
	if got := state(m, "http://a:1"); got != StateSuspect {
		t.Fatalf("configured peer starts %v, want suspect", got)
	}
	if len(m.Snapshot()) != 2 {
		t.Fatalf("self must be filtered from the peer list: %v", m.Snapshot())
	}

	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })

	probe.setFail("http://a:1", true)
	for i := 0; i < 2; i++ {
		m.probeDue()
		settle(t, m, func() bool { return true })
	}
	if got := state(m, "http://a:1"); got != StateSuspect {
		t.Fatalf("after 2 failures state = %v, want suspect", got)
	}
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateDead })
	if m.Routable("http://a:1") {
		t.Fatal("dead peer reported routable")
	}
	before := probe.callCount("http://a:1")
	for i := 0; i < 3; i++ {
		m.probeDue()
		settle(t, m, func() bool { return true })
	}
	if got := probe.callCount("http://a:1") - before; got != 3 {
		t.Fatalf("dead peer probed %d times in 3 ticks, want 3", got)
	}

	probe.setFail("http://a:1", false)
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
}

// TestMembershipSlowProbeDemotes pins the gray-failure detector: a probe
// that answers, but slower than ProbeTimeout, is a failed probe. One makes
// the peer suspect and unroutable, DeadAfter of them make it dead, and a
// timely probe restores alive. OnAlive fires for the first timely probe,
// and once more when the peer comes back from dead, never from suspect.
func TestMembershipSlowProbeDemotes(t *testing.T) {
	const peer = "http://a:1"
	cases := []struct {
		name     string
		slow     int  // consecutive slow probes after the first good one
		recover  bool // then one timely probe
		want     State
		routable bool
		fires    int
	}{
		{name: "one slow probe", slow: 1, want: StateSuspect, fires: 1},
		{name: "DeadAfter slow probes", slow: 3, want: StateDead, fires: 1},
		{name: "timely probe after suspect", slow: 1, recover: true, want: StateAlive, routable: true, fires: 1},
		{name: "timely probe after dead", slow: 3, recover: true, want: StateAlive, routable: true, fires: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := newFakeProbe()
			var mu sync.Mutex
			fires := 0
			m := NewMembership(Config{
				Self:          "http://self:1",
				Peers:         []string{peer},
				ProbeInterval: 10 * time.Millisecond,
				ProbeTimeout:  20 * time.Millisecond,
				DeadAfter:     3,
				Probe:         probe.probe,
				OnAlive: func(string) {
					mu.Lock()
					fires++
					mu.Unlock()
				},
			})
			tick := func() {
				m.probeDue()
				settle(t, m, func() bool { return true })
			}
			tick()
			if got := state(m, peer); got != StateAlive || !m.Routable(peer) {
				t.Fatalf("after a timely probe state = %v routable = %v, want alive and routable", got, m.Routable(peer))
			}
			probe.setSlow(peer, 200*time.Millisecond)
			for i := 0; i < tc.slow; i++ {
				tick()
			}
			if tc.recover {
				probe.setSlow(peer, 0)
				tick()
			}
			if got := state(m, peer); got != tc.want {
				t.Fatalf("state = %v, want %v", got, tc.want)
			}
			if got := m.Routable(peer); got != tc.routable {
				t.Fatalf("routable = %v, want %v", got, tc.routable)
			}
			mu.Lock()
			defer mu.Unlock()
			if fires != tc.fires {
				t.Fatalf("OnAlive fired %d times, want %d", fires, tc.fires)
			}
		})
	}
}

// TestBreakerSlowRTTCountsAsFailure keeps its name from the deleted
// per-peer breaker, whose SlowRTT turned a slow success into a failure.
// The probe timeout now carries that signal: a probe answering past it is
// a failure, a fast one is not, and with ProbeTimeout unset the probe
// interval is the bound, so latency is always evidence.
func TestBreakerSlowRTTCountsAsFailure(t *testing.T) {
	const peer = "http://a:1"
	cases := []struct {
		name    string
		timeout time.Duration // Config.ProbeTimeout; 0 = default to the interval
		rtt     time.Duration
		want    State
	}{
		{name: "fast probe", timeout: 50 * time.Millisecond, rtt: 5 * time.Millisecond, want: StateAlive},
		{name: "probe past the timeout", timeout: 20 * time.Millisecond, rtt: 200 * time.Millisecond, want: StateSuspect},
		{name: "probe past the default interval bound", rtt: 200 * time.Millisecond, want: StateSuspect},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := newFakeProbe()
			m := NewMembership(Config{
				Self:          "http://self:1",
				Peers:         []string{peer},
				ProbeInterval: 20 * time.Millisecond,
				ProbeTimeout:  tc.timeout,
				DeadAfter:     3,
				Probe:         probe.probe,
			})
			m.probeDue()
			settle(t, m, func() bool { return state(m, peer) == StateAlive })
			probe.setSlow(peer, tc.rtt)
			m.probeDue()
			settle(t, m, func() bool { return true })
			if got := state(m, peer); got != tc.want {
				t.Fatalf("state after a %v probe = %v, want %v", tc.rtt, got, tc.want)
			}
		})
	}
}

// TestMembershipDegradedViewAndRoutable keeps its name from the deleted
// degraded state. The verdict is per peer: a slow peer reads suspect in
// the snapshot (there is no separate gray state) and drops out of
// Routable while a healthy peer stays routable, and timely probes put the
// slow peer back in the routable view.
func TestMembershipDegradedViewAndRoutable(t *testing.T) {
	const slow, fast = "http://a:1", "http://b:1"
	probe := newFakeProbe()
	m := NewMembership(Config{
		Self:          "http://self:1",
		Peers:         []string{slow, fast},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  30 * time.Millisecond,
		DeadAfter:     3,
		Probe:         probe.probe,
	})
	m.probeDue()
	settle(t, m, func() bool { return m.Routable(slow) && m.Routable(fast) })

	probe.setSlow(slow, 200*time.Millisecond)
	for i := 0; i < 2; i++ {
		m.probeDue()
		settle(t, m, func() bool { return true })
	}
	views := map[string]string{}
	for _, p := range m.Snapshot() {
		views[p.URL] = p.State.String()
	}
	if views[slow] != "suspect" || views[fast] != "alive" {
		t.Fatalf("snapshot states = %v, want %s suspect and %s alive", views, slow, fast)
	}
	if m.Routable(slow) {
		t.Fatal("slow peer reported routable")
	}
	if !m.Routable(fast) {
		t.Fatal("healthy peer lost routability to its slow neighbour")
	}

	probe.setSlow(slow, 0)
	m.probeDue()
	settle(t, m, func() bool { return true })
	if !m.Routable(slow) || !m.Routable(fast) {
		t.Fatalf("after timely probes routable = %v/%v, want both", m.Routable(slow), m.Routable(fast))
	}
}

// TestMembershipMarkFailed: proxy-failure evidence transitions the peer
// without waiting for the prober, and placement does not move.
func TestMembershipMarkFailed(t *testing.T) {
	probe := newFakeProbe()
	m := newTestMembership(t, probe, "http://a:1")
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	ringBefore := m.Ring()
	for i := 0; i < 3; i++ {
		m.MarkFailed("http://a:1", errors.New("connection refused"))
	}
	if got := state(m, "http://a:1"); got != StateDead {
		t.Fatalf("after 3 MarkFailed state = %v, want dead", got)
	}
	if m.Ring() != ringBefore {
		t.Fatal("health transition rebuilt the ring — placement must not move on failures")
	}
}

// TestMembershipHTTPProbe drives the default HTTP prober against live
// httptest servers end to end: any 2xx from GET /v1/cluster is alive
// whatever its body, a non-2xx is a failure, a killed server goes dead,
// and the ring is the configured member set throughout.
func TestMembershipHTTPProbe(t *testing.T) {
	var peerA *httptest.Server
	peerA = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"peers":[{"url":%q,"self":true,"state":"alive"},{"url":"http://other:1","state":"alive"}]}`, peerA.URL)
	}))
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	m := NewMembership(Config{
		Self:          "http://self:1",
		Peers:         []string{peerA.URL, refusing.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		DeadAfter:     2,
	})
	m.Start()
	defer m.Close()

	waitFor(t, func() bool {
		return state(m, peerA.URL) == StateAlive && state(m, refusing.URL) == StateDead
	})
	members := []string{peerA.URL, refusing.URL, "http://self:1"}
	sort.Strings(members)
	if got := m.Ring().Members(); fmt.Sprint(got) != fmt.Sprint(members) {
		t.Fatalf("ring members = %v, want the configured %v", got, members)
	}
	if got := len(m.Snapshot()); got != 3 {
		t.Fatalf("snapshot has %d members, want 3: a probe reply must not add members", got)
	}

	peerA.Close()
	waitFor(t, func() bool { return state(m, peerA.URL) == StateDead })
}

// TestMembershipRejoinFiresOncePerRecovery pins the flap rule at the
// membership layer: OnAlive fires once when the peer is first seen alive,
// never on a suspect→alive flap, and exactly once more on a genuine
// dead→alive recovery. (The clustertest package pins the same rule over
// real HTTP transports.)
func TestMembershipRejoinFiresOncePerRecovery(t *testing.T) {
	probe := newFakeProbe()
	var mu sync.Mutex
	fires := 0
	m := NewMembership(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://a:1"},
		ProbeInterval: 10 * time.Millisecond,
		DeadAfter:     3,
		Probe:         probe.probe,
		OnAlive: func(string) {
			mu.Lock()
			fires++
			mu.Unlock()
		},
	})
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return fires
	}

	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	if got := count(); got != 1 {
		t.Fatalf("first sighting emitted %d events, want exactly 1", got)
	}

	// Flap: one failed probe (alive→suspect) then an immediate success
	// (suspect→alive), repeated — never dead, so never an event.
	for i := 0; i < 3; i++ {
		probe.setFail("http://a:1", true)
		m.probeDue()
		settle(t, m, func() bool { return state(m, "http://a:1") == StateSuspect })
		probe.setFail("http://a:1", false)
		m.probeDue()
		settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	}
	if got := count() - 1; got != 0 {
		t.Fatalf("flaps emitted %d events, want 0", got)
	}

	// Genuine death and recovery: exactly one more event.
	probe.setFail("http://a:1", true)
	for i := 0; i < 3; i++ {
		m.probeDue()
		settle(t, m, func() bool { return true })
	}
	if got := state(m, "http://a:1"); got != StateDead {
		t.Fatalf("state = %v, want dead", got)
	}
	probe.setFail("http://a:1", false)
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	if got := count() - 1; got != 1 {
		t.Fatalf("recovery emitted %d events, want exactly 1", got)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}
