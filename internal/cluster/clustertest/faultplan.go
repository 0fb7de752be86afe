// Package clustertest builds in-process multi-node ringsimd clusters with
// deterministic, scriptable fault injection, so every cluster failover
// path — owner death, partitions, slow links, lossy probes — is a fast
// unit test instead of a shell-orchestrated smoke.
//
// The injection seam is the http.RoundTripper that
// service.ClusterOptions.Transport threads under every outbound cluster
// request (health probes, proxy hops, replication pushes, anti-entropy
// fetches). A FaultPlan hands each node — and the test's own client — a
// tripper stamped with that party's identity, so faults can be directional ("a cannot reach b") and globally ordered (a
// single step counter across all traffic). No syscalls, no real process
// kills: a "killed" node simply has every request to or from it fail at
// the transport, which is exactly what SIGKILL looks like from the rest of
// the cluster.
package clustertest

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// FaultPlan is a seeded, scriptable fault schedule shared by every
// participant's transport. All mutators are safe to call while the cluster
// is running; the zero step is before any request has been intercepted.
type FaultPlan struct {
	mu       sync.Mutex
	rng      *rand.Rand
	step     int
	killAt   map[int][]string
	killed   map[string]bool
	cut      map[[2]string]bool
	slow     time.Duration
	slowNode map[string]time.Duration
	dropN    int
	seen     int // requests considered by DropEveryN
	drop     func(from, to, path string) bool
	watch    func(from, to, path string)
}

// NewFaultPlan returns an empty plan whose random choices (Intn) derive
// from seed, so a failing chaos test reproduces from its printed seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:      rand.New(rand.NewSource(seed)),
		killAt:   make(map[int][]string),
		killed:   make(map[string]bool),
		cut:      make(map[[2]string]bool),
		slowNode: make(map[string]time.Duration),
	}
}

// Intn draws a deterministic pseudo-random choice from the plan's seed —
// how a chaos-style test picks victims reproducibly.
func (p *FaultPlan) Intn(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Intn(n)
}

// Step reports how many requests the plan has intercepted so far — the
// global clock KillAt schedules against.
func (p *FaultPlan) Step() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.step
}

// KillAt schedules node to die the moment the plan's step counter reaches
// step: that request and every later one touching node fails.
func (p *FaultPlan) KillAt(step int, node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killAt[step] = append(p.killAt[step], node)
}

// Kill fails every current and future request to or from node, in both
// directions — the transport-level picture of SIGKILL.
func (p *FaultPlan) Kill(node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killed[node] = true
}

// Revive undoes Kill (and any fired KillAt) for node.
func (p *FaultPlan) Revive(node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.killed, node)
}

// Partition cuts the link between a and b in both directions; the rest of
// the cluster is untouched.
func (p *FaultPlan) Partition(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut[pair(a, b)] = true
}

// Heal restores the link Partition cut.
func (p *FaultPlan) Heal(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.cut, pair(a, b))
}

// SlowProxy delays every admitted request by d (0 restores full speed) —
// enough to widen race windows or trip probe timeouts on demand.
func (p *FaultPlan) SlowProxy(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slow = d
}

// SlowNode delays every admitted request to or from node by d (0 lifts
// the fault) — a gray failure: the node stays alive, answers probes, and
// loses no traffic, it is just slow for everyone. Requests touching two
// slowed parties, or a slowed party under SlowProxy too, are delayed by
// the largest applicable value, not the sum (one shared slow event, not
// stacked ones). The delay honors the request context, so a caller whose
// timeout fires mid-delay gets its cancellation immediately and the
// request never reaches the node.
func (p *FaultPlan) SlowNode(node string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d <= 0 {
		delete(p.slowNode, node)
		return
	}
	p.slowNode[node] = d
}

// DropEveryN fails every nth admitted request (n <= 0 disables). One
// dropped probe flaps a peer alive→suspect→alive without ever reaching
// dead — the membership-flap reproducer.
func (p *FaultPlan) DropEveryN(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropN = n
	p.seen = 0
}

// Drop fails every request fn selects by sender, target base URL and URL
// path — after any SlowProxy or SlowNode delay, so a slowed drop is a
// request that hangs and then fails. fn runs under the plan's lock and
// must not call back into the plan. nil lifts the fault.
func (p *FaultPlan) Drop(fn func(from, to, path string) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drop = fn
}

// OnRequest registers fn to observe every admitted (not injected-failed)
// request: sender identity, target base URL, and URL path. Tests use it to
// count specific traffic — e.g. anti-entropy key listings after a kick. nil
// unregisters.
func (p *FaultPlan) OnRequest(fn func(from, to, path string)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.watch = fn
}

// Transport wraps the default transport with this plan's faults, stamped
// with the sending party's identity (a node URL, or any label like
// "client" for the test's own traffic).
func (p *FaultPlan) Transport(from string) http.RoundTripper {
	return &planTripper{plan: p, from: from, next: http.DefaultTransport}
}

// admit advances the global step, applies due KillAt entries, and rules on
// one request: an error to inject, or a delay to impose before sending.
// Admitted requests are reported to the OnRequest observer.
func (p *FaultPlan) admit(from, to, path string) (time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.step++
	for s, nodes := range p.killAt {
		if s <= p.step {
			for _, n := range nodes {
				p.killed[n] = true
			}
			delete(p.killAt, s)
		}
	}
	if p.killed[from] {
		return 0, fmt.Errorf("clustertest: %s is killed", from)
	}
	if p.killed[to] {
		return 0, fmt.Errorf("clustertest: %s is killed", to)
	}
	if p.cut[pair(from, to)] {
		return 0, fmt.Errorf("clustertest: %s and %s are partitioned", from, to)
	}
	if p.dropN > 0 {
		p.seen++
		if p.seen%p.dropN == 0 {
			return 0, fmt.Errorf("clustertest: dropped request %s -> %s", from, to)
		}
	}
	if p.watch != nil {
		p.watch(from, to, path)
	}
	delay := p.slow
	delay = max(delay, p.slowNode[from], p.slowNode[to])
	return delay, nil
}

// dropped reports whether Drop selects the request.
func (p *FaultPlan) dropped(from, to, path string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drop != nil && p.drop(from, to, path)
}

// pair canonicalizes an unordered link so Partition(a,b) and a b→a request
// agree on the key.
func pair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// planTripper is the RoundTripper a FaultPlan hands each participant.
type planTripper struct {
	plan *FaultPlan
	from string
	next http.RoundTripper
}

// RoundTrip consults the plan before forwarding; injected failures surface
// to callers exactly like transport errors, so retry and failover code
// cannot tell them from real network faults.
func (t *planTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	to := req.URL.Scheme + "://" + req.URL.Host
	delay, err := t.plan.admit(t.from, to, req.URL.Path)
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if t.plan.dropped(t.from, to, req.URL.Path) {
		return nil, fmt.Errorf("clustertest: dropped %s %s -> %s", req.URL.Path, t.from, to)
	}
	return t.next.RoundTrip(req)
}
