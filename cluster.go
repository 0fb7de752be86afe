package dynring

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"dynring/internal/cluster"
)

// This file is the client side of a sharded ringsimd cluster: the wire
// types of the /v1/cluster and /v1/run endpoints, and fingerprint-aware
// sweep routing. Placement is computed client-side with the same
// internal/cluster ring the servers use, from a single /v1/cluster
// snapshot — the contract that makes this sound is that placement is a
// pure function of (member set, vnodes), golden-tested server-side, so a
// client and every node agree on each fingerprint's owner without any
// coordination.

// PeerStatus is one cluster member as reported by /v1/cluster (and
// /statsz). State is "alive", "suspect", "dead", "left" or "degraded" as
// seen by the reporting node; health is local opinion, placement is
// global.
type PeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// State is the probe-derived health state. Peers in any state except
	// "left" are ring members. "degraded" means alive-but-gray: the peer
	// answers probes but the reporting node's circuit breaker for it is
	// not closed (recent proxy errors, timeouts, or slow RTTs), so routed
	// work skips it until the breaker recovers.
	State string `json:"state"`
	// Breaker is the reporting node's circuit-breaker state for this peer:
	// "closed", "open" or "half_open". Absent for the self entry.
	Breaker string `json:"breaker,omitempty"`
	// Failures counts consecutive failed probes; LastSeen is the last
	// successful one (zero: never probed successfully).
	Failures int       `json:"failures,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`
	// QueueDepth is the peer's scheduler backlog: live for the reporting
	// node's self entry, last-gossiped for everyone else. Replicas compare
	// depths to decide when to steal an overloaded owner's work.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// ClusterStatus is the /v1/cluster document: this node's view of the
// cluster. VNodes plus the non-left member URLs are sufficient to rebuild
// the placement ring exactly.
type ClusterStatus struct {
	// Enabled reports whether the node runs in cluster mode at all; a
	// standalone ringsimd serves Enabled false with an empty peer list.
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	VNodes  int    `json:"vnodes,omitempty"`
	// Replicas is the cluster's replica-set size k (0 or 1: unreplicated).
	// Clients consult a fingerprint's whole replica set — Owners(fp, k) —
	// when its owner dies mid-sweep.
	Replicas int          `json:"replicas,omitempty"`
	Peers    []PeerStatus `json:"peers"`
}

// RingMembers returns the placement-ring member URLs (every peer that has
// not left), in the sorted order NewRing would impose anyway.
func (cs ClusterStatus) RingMembers() []string {
	var members []string
	for _, p := range cs.Peers {
		if p.State != "left" {
			members = append(members, p.URL)
		}
	}
	return members
}

// RunRequest is the body of POST /v1/run: execute (or serve from cache)
// one scenario on the receiving node, synchronously. It is the cluster's
// internal proxy hop — a node that does not own a fingerprint forwards it
// here — but is equally usable by external callers for one-off scenarios.
type RunRequest struct {
	Scenario ScenarioSpec `json:"scenario"`
}

// RunResponse is the document POST /v1/run answers with.
type RunResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Cached reports the result was served from the node's cache tiers
	// rather than executed now.
	Cached bool    `json:"cached"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Span is the receiving node's span for this execution (how it served
	// the scenario, and under which node name). A proxying coordinator
	// adopts it into the sweep's trace, which is how one trace ID ends up
	// spanning multiple nodes.
	Span *TraceSpan `json:"span,omitempty"`
}

// ClusterStatus fetches the node's /v1/cluster document.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatus, error) {
	var cs ClusterStatus
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &cs)
	return cs, err
}

// RunScenario executes one scenario on the node (or serves it from its
// caches) via POST /v1/run, synchronously. WithTrace records the node's
// span under the caller's trace; WithDeadline sends the remaining budget,
// and the node bounds its execution by it; WithTenant overrides the
// client's TenantKey. The cluster proxy path sends its trace and remaining
// budget on every hop, so a job's trace and deadline follow its scenarios
// across nodes. WithPriority is ignored: a single scenario runs at once.
func (c *Client) RunScenario(ctx context.Context, spec ScenarioSpec, opts ...SubmitOption) (RunResponse, error) {
	var rr RunResponse
	err := c.doWith(ctx, http.MethodPost, "/v1/run", newSubmitOptions(opts), RunRequest{Scenario: spec}, &rr)
	return rr, err
}

// peerClient derives a client for another cluster node, inheriting this
// client's transport and retry policy.
func (c *Client) peerClient(baseURL string) *Client {
	return &Client{
		BaseURL:        strings.TrimRight(baseURL, "/"),
		HTTPClient:     c.HTTPClient,
		Retries:        c.Retries,
		RetryBaseDelay: c.RetryBaseDelay,
		TenantKey:      c.TenantKey,
	}
}

// RunSweepRouted is RunSweep with cluster routing: it snapshots the
// cluster once, computes each expanded scenario's owner on the placement
// ring, and submits each owner its share of the grid directly — so every
// scenario lands on the node whose cache tiers own its fingerprint,
// executing at most once cluster-wide, with no proxy hop in the common
// path. Results are returned in grid order, exactly as RunSweep would.
//
// Degraded paths keep the sweep alive rather than precise:
//
//   - A standalone node (cluster disabled or single-member) and a grid
//     that cannot be fingerprinted or re-serialized (custom factories)
//     fall back to plain RunSweep against this client's node.
//   - Scenarios whose owner is not alive in the snapshot are submitted to
//     this client's node, which executes them locally (its own fallback).
//   - A share that fails against its owner — the peer died after the
//     snapshot, or moved — is transparently retried against this client's
//     node before the sweep is failed.
//
// onRow, when non-nil, receives each result as its share settles; unlike
// RunSweepFunc's hook the calls are NOT in grid order across shares
// (shares stream concurrently), though the returned slice always is.
//
// SubmitOptions (tenant, priority, deadline) apply to every share
// submission: each owning node admits its share under the same tenant.
func (c *Client) RunSweepRouted(ctx context.Context, spec SweepSpec, onRow func(SweepResult), opts ...SubmitOption) ([]SweepResult, error) {
	cs, err := c.ClusterStatus(ctx)
	if err != nil {
		return nil, err
	}
	members := cs.RingMembers()
	if !cs.Enabled || len(members) <= 1 {
		return c.RunSweepFunc(ctx, spec, nil, onRow, opts...)
	}
	scenarios, err := spec.ScenarioList()
	if err != nil {
		return nil, err
	}
	shares, routable := routeShares(scenarios, cs)
	if !routable {
		// Not content-addressable (custom factories, unlabelled
		// adversaries): no owner exists, so routing is meaningless.
		return c.RunSweepFunc(ctx, spec, nil, onRow, opts...)
	}

	out := make([]SweepResult, len(scenarios))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	deliver := func(indices []int, results []SweepResult) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range results {
			if r.Index < 0 || r.Index >= len(indices) {
				continue
			}
			r.Index = indices[r.Index]
			r.Scenario = scenarios[r.Index]
			out[r.Index] = r
			if onRow != nil {
				onRow(r)
			}
		}
	}
	for target, indices := range shares {
		wg.Add(1)
		go func(target string, indices []int) {
			defer wg.Done()
			share, err := shareSpec(scenarios, indices)
			if err == nil {
				var results []SweepResult
				results, err = c.runShare(ctx, target, share, opts)
				if err != nil && target != c.BaseURL && ctx.Err() == nil {
					// The owner died or moved after the snapshot: re-route
					// each scenario through the rest of its replica set —
					// which holds its envelope and keeps the exactly-once
					// counters honest — before the coordinator executes
					// anything locally.
					results, err = c.retryShare(ctx, scenarios, indices, cs, target, opts)
				}
				if len(results) > 0 {
					deliver(indices, results)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("dynring: share of %d scenarios on %s: %w", len(indices), target, err)
				}
				mu.Unlock()
			}
		}(target, indices)
	}
	wg.Wait()
	if firstErr != nil {
		return out, firstErr
	}
	return out, nil
}

// routeShares groups scenario indices by the node each should be
// submitted to: the fingerprint's owner when alive, else the first alive
// member of its replica set (whose tiers hold the replicated envelope),
// else this client's own node. The second return is false when any
// scenario has no fingerprint (the grid is unroutable as a whole — one
// submission beats a split brain).
func routeShares(scenarios []Scenario, cs ClusterStatus) (map[string][]int, bool) {
	ring := cluster.NewRing(cs.RingMembers(), cs.VNodes)
	alive := aliveSet(cs)
	self := selfURL(cs)
	shares := make(map[string][]int)
	for i, sc := range scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			return nil, false
		}
		target := self
		for _, o := range ring.Owners(fp, replicaCount(cs)) {
			if alive[o] {
				target = o
				break
			}
		}
		shares[target] = append(shares[target], i)
	}
	return shares, true
}

// retryShare re-routes one failed share: each of its scenarios goes to the
// first alive member of its replica set other than the failed node, and
// only scenarios with no surviving replica (or whose replica also fails)
// fall back to this client's own node. With replication enabled the
// surviving replicas hold the share's envelopes, so the retry is served
// from their tiers — zero re-executions — instead of re-executing on the
// coordinator. Returned results are indexed relative to the original
// share order, so the caller's deliver() mapping applies unchanged.
func (c *Client) retryShare(ctx context.Context, scenarios []Scenario, indices []int, cs ClusterStatus, failed string, opts []SubmitOption) ([]SweepResult, error) {
	ring := cluster.NewRing(cs.RingMembers(), cs.VNodes)
	alive := aliveSet(cs)
	groups := make(map[string][]int) // retry target → positions within indices
	for pos, i := range indices {
		fp, err := scenarios[i].Fingerprint()
		if err != nil {
			return nil, err
		}
		target := c.BaseURL
		for _, o := range ring.Owners(fp, replicaCount(cs)) {
			if o != failed && alive[o] {
				target = o
				break
			}
		}
		groups[target] = append(groups[target], pos)
	}
	out := make([]SweepResult, len(indices))
	for target, positions := range groups {
		sub := make([]int, len(positions))
		for k, pos := range positions {
			sub[k] = indices[pos]
		}
		share, err := shareSpec(scenarios, sub)
		if err != nil {
			return nil, err
		}
		results, err := c.runShare(ctx, target, share, opts)
		if err != nil && target != c.BaseURL && ctx.Err() == nil {
			// The replica died too; the coordinator is the last resort.
			results, err = c.runShare(ctx, c.BaseURL, share, opts)
		}
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if r.Index < 0 || r.Index >= len(positions) {
				continue
			}
			r.Index = positions[r.Index]
			out[r.Index] = r
		}
	}
	return out, nil
}

// aliveSet maps member URL → routable (alive, or the reporting node
// itself). Degraded peers are deliberately not routable here: the
// coordinator has breaker evidence that they are slow, so client-side
// routing sends their shares to the next replica (or the coordinator)
// exactly as routeShares does for dead peers — placement never moves,
// only the serving node does.
func aliveSet(cs ClusterStatus) map[string]bool {
	alive := make(map[string]bool, len(cs.Peers))
	for _, p := range cs.Peers {
		alive[p.URL] = p.State == "alive" || p.Self
	}
	return alive
}

// selfURL is the reporting node's URL from a /v1/cluster snapshot.
func selfURL(cs ClusterStatus) string {
	for _, p := range cs.Peers {
		if p.Self {
			return p.URL
		}
	}
	return cs.Self
}

// replicaCount normalizes a snapshot's replica-set size (pre-replication
// servers omit the field).
func replicaCount(cs ClusterStatus) int {
	if cs.Replicas < 1 {
		return 1
	}
	return cs.Replicas
}

// shareSpec builds the explicit-list SweepSpec for one owner's share.
func shareSpec(scenarios []Scenario, indices []int) (SweepSpec, error) {
	share := SweepSpec{Scenarios: make([]ScenarioSpec, len(indices))}
	for k, i := range indices {
		sp, err := scenarios[i].WireSpec()
		if err != nil {
			return SweepSpec{}, err
		}
		share.Scenarios[k] = sp
	}
	return share, nil
}

// runShare runs one share against target, reusing the full RunSweepFunc
// machinery (submission, streaming, truncation checks, abandonment).
func (c *Client) runShare(ctx context.Context, target string, share SweepSpec, opts []SubmitOption) ([]SweepResult, error) {
	return c.peerClient(target).RunSweepFunc(ctx, share, nil, nil, opts...)
}
