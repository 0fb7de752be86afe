package cluster

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives a Breaker's notion of time without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClockedBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	b := NewBreaker(cfg)
	c := &fakeClock{t: time.Unix(1000, 0)}
	b.now = c.now
	return b, c
}

// TestBreakerOpensOnConsecutiveFailures: the classic closed→open trip at
// the threshold, with a success resetting the consecutive count.
func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	b, _ := newClockedBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second})
	boom := errors.New("boom")
	b.Observe(0, boom)
	b.Observe(0, boom)
	b.Observe(0, nil) // success resets the run
	b.Observe(0, boom)
	b.Observe(0, boom)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after interrupted failure runs = %v, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	b.Observe(0, boom) // third consecutive: trip
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", 3, st)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
}

// TestBreakerSlowRTTCountsAsFailure: gray failure — successful but slow
// observations trip the breaker exactly like errors; fast successes do
// not.
func TestBreakerSlowRTTCountsAsFailure(t *testing.T) {
	b, _ := newClockedBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second, SlowRTT: 100 * time.Millisecond})
	b.Observe(10*time.Millisecond, nil) // fast: fine
	b.Observe(150*time.Millisecond, nil)
	b.Observe(100*time.Millisecond, nil) // at the threshold counts too
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after 2 slow successes = %v, want open", st)
	}

	// Without SlowRTT configured, latency is never evidence.
	b2, _ := newClockedBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second})
	b2.Observe(time.Hour, nil)
	b2.Observe(time.Hour, nil)
	if st := b2.State(); st != BreakerClosed {
		t.Fatalf("SlowRTT disabled but state = %v, want closed", st)
	}
}

// TestBreakerHalfOpenTrial: after the cooldown, Allow admits a trial
// (half-open); a good observation closes, a bad one re-opens with a fresh
// cooldown.
func TestBreakerHalfOpenTrial(t *testing.T) {
	b, clk := newClockedBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Observe(0, errors.New("boom"))
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no trial admitted")
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after trial admission = %v, want half_open", st)
	}
	b.Observe(0, errors.New("still bad"))
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("failed trial left state %v, want open", st)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request without a fresh cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed but no trial admitted")
	}
	b.Observe(5*time.Millisecond, nil)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("successful trial left state %v, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request after recovery")
	}
}

// TestBreakerProbeSuccessClosesAfterCooldown: a good observation that
// arrives while open (a probe — probes bypass Allow) closes the breaker
// only once the cooldown has elapsed; during the cooldown it is ignored,
// so one cheap fast probe cannot instantly clear proxy-timeout evidence.
func TestBreakerProbeSuccessClosesAfterCooldown(t *testing.T) {
	b, clk := newClockedBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Observe(0, errors.New("boom"))
	b.Observe(time.Millisecond, nil) // within cooldown: ignored
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("good observation inside cooldown moved state to %v, want open", st)
	}
	// A bad observation while open pushes the cooldown forward.
	clk.advance(900 * time.Millisecond)
	b.Observe(0, errors.New("still bad"))
	clk.advance(900 * time.Millisecond)
	b.Observe(time.Millisecond, nil)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("cooldown was not re-armed by the in-open failure (state %v)", st)
	}
	clk.advance(200 * time.Millisecond)
	b.Observe(time.Millisecond, nil) // past the re-armed cooldown: closes
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("post-cooldown good observation left state %v, want closed", st)
	}
}

// TestMembershipDegradedViewAndRoutable drives the breaker through the
// membership layer: slow probes (alive but gray) open the peer's breaker,
// the snapshot reports StateDegraded while Alive stays true and Routable
// flips false, and fast probes after the cooldown close the breaker and
// restore the alive view.
func TestMembershipDegradedViewAndRoutable(t *testing.T) {
	probe := newFakeProbe()
	m := NewMembership(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://a:1"},
		ProbeInterval: 10 * time.Millisecond,
		DeadAfter:     3,
		Probe:         probe.probe,
		Breaker:       BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond, SlowRTT: 30 * time.Millisecond},
	})
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	if !m.Routable("http://a:1") {
		t.Fatal("healthy alive peer not routable")
	}

	// Two slow-but-successful probes: the peer stays alive (it answers!)
	// but its breaker opens and the reported view turns degraded.
	probe.setSlow("http://a:1", 60*time.Millisecond)
	for i := 0; i < 2; i++ {
		advance(m, time.Hour)
		m.probeDue()
		settle(t, m, func() bool { return true })
	}
	if got := state(m, "http://a:1"); got != StateDegraded {
		t.Fatalf("state after slow probes = %v, want degraded", got)
	}
	if !m.Alive("http://a:1") {
		t.Fatal("degraded peer must still be alive (it answers probes)")
	}
	if m.Routable("http://a:1") {
		t.Fatal("degraded peer with an open breaker must not be routable")
	}
	if got := m.BreakerStates()[BreakerOpen]; got != 1 {
		t.Fatalf("BreakerStates[open] = %d, want 1", got)
	}

	// Recovery: fast probes again. The first good observation after the
	// cooldown closes the breaker and the view returns to alive.
	probe.setSlow("http://a:1", 0)
	time.Sleep(60 * time.Millisecond) // let the cooldown elapse in real time
	advance(m, time.Hour)
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	if !m.Routable("http://a:1") {
		t.Fatal("recovered peer not routable")
	}
	if got := m.BreakerStates()[BreakerOpen]; got != 0 {
		t.Fatalf("BreakerStates[open] after recovery = %d, want 0", got)
	}
}

// TestMembershipObserveRTTFeedsBreaker: proxy-side RTT evidence reported
// via ObserveRTT trips the breaker without any probe involvement, and
// Routable (not Alive) is what routing must consult.
func TestMembershipObserveRTTFeedsBreaker(t *testing.T) {
	probe := newFakeProbe()
	m := NewMembership(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://a:1"},
		ProbeInterval: 10 * time.Millisecond,
		Probe:         probe.probe,
		Breaker:       BreakerConfig{Threshold: 2, Cooldown: time.Minute, SlowRTT: 100 * time.Millisecond},
	})
	m.probeDue()
	settle(t, m, func() bool { return state(m, "http://a:1") == StateAlive })
	m.ObserveRTT("http://a:1", 500*time.Millisecond)
	m.ObserveRTT("http://a:1", 500*time.Millisecond)
	if m.Routable("http://a:1") {
		t.Fatal("peer with slow proxy RTTs still routable")
	}
	if !m.Alive("http://a:1") {
		t.Fatal("slow peer must remain alive")
	}
	m.ObserveRTT("http://nope:9", time.Hour) // unknown URLs ignored
	if !m.Routable("http://self:1") {
		t.Fatal("self must always be routable")
	}
}

// TestMembershipGossipedDegradedPullsProbeForward: a probe report naming a
// trusted member as degraded schedules this node's own verification probe
// of that member immediately — the verdict is advisory, never adopted.
func TestMembershipGossipedDegradedPullsProbeForward(t *testing.T) {
	probe := newFakeProbe()
	probe.members["http://a:1"] = []string{"http://b:2"}
	m := newTestMembership(t, probe, "http://a:1", "http://b:2")
	m.probeDue()
	settle(t, m, func() bool {
		return state(m, "http://a:1") == StateAlive && state(m, "http://b:2") == StateAlive
	})

	// Both peers now have nextProbe one interval out. A fresh report from
	// a naming b degraded must pull b's probe to now — and must not change
	// b's state.
	probe.mu.Lock()
	probe.degraded["http://a:1"] = []string{"http://b:2"}
	probe.mu.Unlock()
	m.mu.Lock()
	m.peers["http://a:1"].nextProbe = m.now() // make a due again
	bNext := m.peers["http://b:2"].nextProbe
	m.mu.Unlock()
	if !bNext.After(m.now()) {
		t.Fatal("precondition: b's probe should be scheduled in the future")
	}
	m.probeDue()
	settle(t, m, func() bool { return true })
	m.mu.Lock()
	bNext = m.peers["http://b:2"].nextProbe
	m.mu.Unlock()
	if bNext.After(m.now()) {
		t.Fatal("gossiped degraded verdict did not pull b's verification probe forward")
	}
	if got := state(m, "http://b:2"); got != StateAlive {
		t.Fatalf("gossiped verdict was adopted: b state = %v, want alive", got)
	}
}
