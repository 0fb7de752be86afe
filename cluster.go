package dynring

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"dynring/internal/sim"
	"dynring/internal/wire"
)

// This file is the client side of a sharded ringsimd cluster: the wire
// types of the /v1/cluster and /v1/run endpoints. Clients never compute
// placement: any node accepts a sweep and its server-side routing (owner
// proxy, replica failover, local fallback) decides where each fingerprint
// runs, so there is exactly one routing authority.

// PeerStatus is one cluster member as reported by /v1/cluster (and
// /statsz). State is "alive", "suspect" or "dead" as seen by the reporting
// node; health is local opinion, placement is global.
type PeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// State is the probe-derived health state. Every configured member is
	// on the ring whatever its state; only "alive" peers receive routed
	// work. A gray peer — one that answers, but slower than the reporting
	// node's probe timeout (capped at its proxy timeout) — reads "suspect"
	// after one slow probe and "dead" after several, exactly like an
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

// AppendJSON appends the request's JSON form to dst, as
// SweepSpec.AppendJSON does.
func (r RunRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := r.Scenario.AppendJSON(append(dst, `{"scenario":`...))
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// DecodeRunRequest decodes a POST /v1/run body with the same fast path and
// encoding/json definition as DecodeSweepSpec.
func DecodeRunRequest(data []byte) (RunRequest, error) {
	var req RunRequest
	l := wire.NewLexer(data)
	if readRunRequest(&l, &req.Scenario); l.End() {
		return req, nil
	}
	req = RunRequest{}
	return req, decodeStrict(data, &req)
}

// readRunRequest is DecodeRunRequest's fast path: it reads the request's
// scenario into sp, reusing its storage as readScenarioSpec does.
func readRunRequest(l *wire.Lexer, sp *ScenarioSpec) {
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		if string(l.Key()) != "scenario" {
			l.Fail()
		}
		l.Field(&seen, 0)
		readScenarioSpec(l, sp)
	}
	if seen == 0 {
		*sp = ScenarioSpec{}
	}
}

// RunResponse is the document POST /v1/run answers with: the whole body
// of a single-JSON request, one NDJSON line per row of a batch. Both are
// written by AppendJSON and read back by ParseRunResponse.
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

// AppendJSON appends the response's JSON form to dst: exactly the bytes
// encoding/json emits for it, without a trailing newline. A span time
// encoding/json refuses to encode (see wire.AppendTime) is written as null.
func (r RunResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"fingerprint":`...)
	dst = wire.AppendString(dst, r.Fingerprint)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	if r.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = sim.AppendResult(dst, r.Result)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = wire.AppendString(dst, r.Error)
	}
	if s := r.Span; s != nil {
		dst = append(dst, `,"span":{"index":`...)
		dst = strconv.AppendInt(dst, int64(s.Index), 10)
		if s.Name != "" {
			dst = append(dst, `,"name":`...)
			dst = wire.AppendString(dst, s.Name)
		}
		dst = append(dst, `,"node":`...)
		dst = wire.AppendString(dst, s.Node)
		dst = append(dst, `,"kind":`...)
		dst = wire.AppendString(dst, s.Kind)
		// omitempty never omits a struct, so enqueued_at is always there.
		dst = append(dst, `,"enqueued_at":`...)
		dst = wire.AppendTime(dst, s.EnqueuedAt)
		dst = append(dst, `,"started_at":`...)
		dst = wire.AppendTime(dst, s.StartedAt)
		dst = append(dst, `,"finished_at":`...)
		dst = wire.AppendTime(dst, s.FinishedAt)
		if s.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = wire.AppendString(dst, s.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// ParseRunResponse decodes one RunResponse into *rr, which it overwrites.
// Documents in the canonical form AppendJSON emits take a fast path; any
// other input is decoded by json.Unmarshal, which defines what is accepted
// (unknown fields are ignored) and the error for what is not.
func ParseRunResponse(data []byte, rr *RunResponse) error {
	*rr = RunResponse{}
	if readRunResponse(data, rr) {
		return nil
	}
	*rr = RunResponse{}
	return json.Unmarshal(data, rr)
}

// readRunResponse is ParseRunResponse's fast path; it reports whether data
// was canonical and fully read.
func readRunResponse(data []byte, rr *RunResponse) bool {
	l := wire.NewLexer(data)
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "fingerprint":
			l.Field(&seen, 0)
			rr.Fingerprint = l.String()
		case "cached":
			l.Field(&seen, 1)
			rr.Cached = l.Bool()
		case "result":
			l.Field(&seen, 2)
			rr.Result = new(Result)
			sim.ReadResult(&l, rr.Result)
		case "error":
			l.Field(&seen, 3)
			rr.Error = l.String()
		case "span":
			l.Field(&seen, 4)
			rr.Span = new(TraceSpan)
			readTraceSpan(&l, rr.Span)
		default:
			l.Fail()
		}
	}
	return l.End()
}

// readTraceSpan reads one canonical TraceSpan object.
func readTraceSpan(l *wire.Lexer, s *TraceSpan) {
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "index":
			l.Field(&seen, 0)
			s.Index = l.Int()
		case "name":
			l.Field(&seen, 1)
			s.Name = l.String()
		case "node":
			l.Field(&seen, 2)
			s.Node = l.String()
		case "kind":
			l.Field(&seen, 3)
			s.Kind = l.String()
		case "enqueued_at":
			l.Field(&seen, 4)
			s.EnqueuedAt = l.Time()
		case "started_at":
			l.Field(&seen, 5)
			s.StartedAt = l.Time()
		case "finished_at":
			l.Field(&seen, 6)
			s.FinishedAt = l.Time()
		case "error":
			l.Field(&seen, 7)
			s.Error = l.String()
		default:
			l.Fail()
		}
	}
}

// ClusterStatus fetches the node's /v1/cluster document.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatus, error) {
	var cs ClusterStatus
	err := c.do(ctx, http.MethodGet, "/v1/cluster", &cs)
	return cs, err
}

// RunScenario executes one scenario on the node (or serves it from its
// caches) via POST /v1/run, synchronously. WithTrace records the node's
// span under the caller's trace; WithTenant overrides the client's
// TenantKey. The cluster proxy path sends its trace on every hop, so a
// job's trace follows its scenarios across nodes. The run is bound to the
// request: cancelling ctx ends it on the node too.
func (c *Client) RunScenario(ctx context.Context, spec ScenarioSpec, opts ...SubmitOption) (RunResponse, error) {
	var rr RunResponse
	err := c.doWith(ctx, http.MethodPost, "/v1/run", newSubmitOptions(opts), RunRequest{Scenario: spec}.AppendJSON, &rr)
	return rr, err
}
