package dynring

import (
	"context"
	"net/http"
	"time"

	"dynring/internal/wire"
)

// This file is the client side of a sharded ringsimd cluster: the wire
// types of the /v1/cluster and /v1/run endpoints. Clients never compute
// placement: any node accepts a sweep and its server-side routing (owner
// proxy, replica failover, local fallback) decides where each fingerprint
// runs, so there is exactly one routing authority.

// PeerStatus is one cluster member as reported by /v1/cluster (and
// /statsz). State is "alive", "suspect", "dead" or "left" as seen by the
// reporting node; health is local opinion, placement is global.
type PeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// State is the probe-derived health state. Peers in any state except
	// "left" are ring members; only "alive" peers receive routed work. A
	// gray peer — one that answers, but slower than the reporting node's
	// probe timeout (capped at its proxy timeout) — reads "suspect" after
	// one slow probe and "dead" after several, exactly like an
	// unreachable one, and "alive" again at its first timely probe.
	State string `json:"state"`
	// Failures counts consecutive failed probes; LastSeen is the last
	// successful one (zero: never probed successfully).
	Failures int       `json:"failures,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// ClusterStatus is the /v1/cluster document: this node's view of the
// cluster.
type ClusterStatus struct {
	// Enabled reports whether the node runs in cluster mode at all; a
	// standalone ringsimd serves Enabled false with an empty peer list.
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	// VNodes is the placement ring's per-member virtual-node count, a
	// build-time constant shared by every node.
	VNodes int `json:"vnodes,omitempty"`
	// Replicas is the cluster's replica-set size k (0 or 1: unreplicated):
	// each fingerprint's envelope lands on its owner and the next k-1 ring
	// successors, and the serving node fails over along that set when the
	// owner is not alive.
	Replicas int          `json:"replicas,omitempty"`
	Peers    []PeerStatus `json:"peers"`
}

// RunRequest is the body of POST /v1/run: execute (or serve from cache)
// one scenario on the receiving node, synchronously. It is the cluster's
// internal proxy hop — a node that does not own a fingerprint forwards it
// here — but is equally usable by external callers for one-off scenarios.
type RunRequest struct {
	Scenario ScenarioSpec `json:"scenario"`
}

// DecodeRunRequest decodes a POST /v1/run body with the same fast path and
// encoding/json definition as DecodeSweepSpec.
func DecodeRunRequest(data []byte) (RunRequest, error) {
	var req RunRequest
	l := wire.NewLexer(data)
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		if string(l.Key()) != "scenario" {
			l.Fail()
		}
		l.Field(&seen, 0)
		readScenarioSpec(&l, &req.Scenario)
	}
	if l.End() {
		return req, nil
	}
	req = RunRequest{}
	return req, decodeStrict(data, &req)
}

// RunResponse is the document POST /v1/run answers with. It stays on
// encoding/json: it carries TraceSpan times, and the per-scenario hop it
// answers is slated to become a batched one.
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
