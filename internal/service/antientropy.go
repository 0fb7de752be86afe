package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"slices"
	"time"

	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/sim"
	"dynring/internal/wire"
)

// This file is the replication write path and the anti-entropy read-repair
// path between replica disk tiers (ClusterOptions.Replicas > 1).
//
// Replication is push-on-completion: when this node executes a
// fingerprint, the envelope is queued (bounded, backpressured — like the
// disk tier's own write queue) and a background loop POSTs it to every
// other member of the fingerprint's replica set via /v1/replicate; the
// receiver lands it in its tiers through its own asynchronous disk write
// queue. Pushes are best-effort: a replica that misses one pulls the
// envelope itself through anti-entropy.
//
// Anti-entropy makes replica -data directories converge to the set union
// of their envelopes. Content addressing is what reduces reconciliation to
// a union: equal fingerprints imply identical envelopes, so there is
// nothing to merge and no version to compare — a replica either holds a
// fingerprint's envelope or it doesn't. Anti-entropy only pulls: each node
// repairs its own disk tier, and nobody repairs a peer's. A pass fetches
// one peer's key listing and pulls every envelope this node should hold
// but cannot read (absent or corrupt — both read as absent, so corruption
// is repaired, not special-cased). The serving side re-reads and validates
// every envelope it ships, so a corrupt entry is answered with a 404:
// corruption can be repaired from a healthy peer but never propagated to
// one.

// replItem is one queued replication push.
type replItem struct {
	fp  string
	res dynring.Result
}

// replicateRequest is the wire body of POST /v1/replicate and the response
// of GET /v1/antientropy/entry: one content-addressed envelope.
type replicateRequest struct {
	Fingerprint string         `json:"fingerprint"`
	Result      dynring.Result `json:"result"`
}

// appendReplicate appends the replicateRequest for fp and res to dst, in
// exactly the bytes encoding/json emits for it.
func appendReplicate(dst []byte, fp string, res *dynring.Result) []byte {
	dst = append(dst, `{"fingerprint":`...)
	dst = wire.AppendString(dst, fp)
	dst = append(dst, `,"result":`...)
	dst = sim.AppendResult(dst, res)
	return append(dst, '}')
}

// encodeReplicate returns the replicateRequest for fp and res at its exact
// size: appended on the stack, then copied out once, where appending to
// nil grows the body through several reallocations.
func encodeReplicate(fp string, res *dynring.Result) []byte {
	var scratch [512]byte
	b := appendReplicate(scratch[:0], fp, res)
	return append(make([]byte, 0, len(b)), b...)
}

// decodeReplicate decodes a POST /v1/replicate body or a GET
// /v1/antientropy/entry answer: a fast path over the canonical form
// appendReplicate emits, json.Unmarshal for anything else. Both copy every
// string and slice out of data, so the caller may reuse it.
func decodeReplicate(data []byte) (replicateRequest, error) {
	var req replicateRequest
	l := wire.NewLexer(data)
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "fingerprint":
			l.Field(&seen, 0)
			req.Fingerprint = l.String()
		case "result":
			l.Field(&seen, 1)
			sim.ReadResult(&l, &req.Result)
		default:
			l.Fail()
		}
	}
	if l.End() {
		return req, nil
	}
	req = replicateRequest{}
	return req, json.Unmarshal(data, &req)
}

// antiEntropyKeys is the wire body of GET /v1/antientropy/keys.
type antiEntropyKeys struct {
	Keys []string `json:"keys"`
}

// Replica RPCs — replication pushes and anti-entropy fetches — are
// bounded by Manager.proxyTimeout (ClusterOptions.ProxyTimeout, ringsimd
// -proxy-timeout), the same per-hop budget that bounds proxy hops: one
// knob governs how long this node will wait on any peer.

// replicate queues fp's completed envelope for push to its other
// replicas. No-op when unreplicated. A full queue blocks (backpressure)
// unless the manager is shutting down.
func (m *Manager) replicate(fp string, res dynring.Result) {
	if m.membership == nil || m.replicas < 2 {
		return
	}
	// The envelope stays resident here until its replicas have it, and
	// then starts a fresh stay in the LRU: a peer asking for fp meanwhile,
	// or with a request that crossed the push, finds it on one node or the
	// other.
	m.cache.hold(fp)
	select {
	case m.replq <- replItem{fp: fp, res: res}:
	case <-m.auxStop:
		m.cache.release(fp)
	}
}

// replicationLoop drains the replication queue until Close.
func (m *Manager) replicationLoop() {
	for {
		select {
		case <-m.auxStop:
			return
		case it := <-m.replq:
			m.pushReplicas(it.fp, it.res)
			m.cache.release(it.fp)
		}
	}
}

// pushReplicas sends one envelope to every other currently-routable member
// of its replica set, encoding it once for all of them. A replica that is
// not alive — unreachable, or too slow to answer its probes inside the
// probe timeout — is skipped, and pulls what it missed through
// anti-entropy once it sees this node alive again; each skip is counted.
// Pushes run serially on one loop, each bounded by the proxy timeout, so
// waiting on a gray peer would back the bounded queue up into every
// execution on this node.
func (m *Manager) pushReplicas(fp string, res dynring.Result) {
	self := m.membership.Self()
	var body []byte
	for _, o := range m.membership.Ring().Owners(fp, m.replicas) {
		if o == self {
			continue
		}
		if !m.membership.Routable(o) {
			m.met.replSkipped.Inc()
			continue
		}
		if body == nil {
			body = encodeReplicate(fp, &res)
		}
		start := time.Now()
		if err := m.postReplicate(o, body); err != nil {
			m.met.replPushFailures.Inc()
			m.log.Warn("replication push failed", "fingerprint", fp, "target", o, "error", err)
			continue
		}
		m.met.replPushRTT.Observe(time.Since(start).Seconds())
		m.met.replSent.Inc()
	}
}

// postReplicate POSTs one encoded envelope to target's /v1/replicate.
func (m *Manager) postReplicate(target string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), m.proxyTimeout)
	defer cancel()
	return m.peers.push(ctx, target, "/v1/replicate", body)
}

// AdoptEnvelope lands a replicated envelope in this node's cache tiers
// (the durable write goes through the existing asynchronous write queue).
// It is the receiving side of /v1/replicate and of anti-entropy pulls; the
// fingerprint contract — equal fingerprints imply identical results —
// makes adoption idempotent and order-free.
func (m *Manager) AdoptEnvelope(fp string, res dynring.Result) {
	m.cache.Put(fp, res)
}

// Replicated reports whether this node runs a replicated cluster — the
// gate for the /v1/replicate and /v1/antientropy endpoints.
func (m *Manager) Replicated() bool {
	return m.membership != nil && m.replicas > 1
}

// DurableKeys lists the durable tier's indexed fingerprints (the
// /v1/antientropy/keys payload). Empty without a disk tier.
func (m *Manager) DurableKeys() []string {
	return m.cache.DurableKeys()
}

// DurableEnvelope re-reads and validates one durable envelope for serving
// to a peer. A corrupt entry reports absent — never shipped.
func (m *Manager) DurableEnvelope(fp string) (dynring.Result, bool) {
	return m.cache.Durable(fp)
}

// antiEntropyLoop paces background repair of this node's disk tier: a
// pass over alive peers every aeInterval, plus an immediate pull from a
// peer the moment this node sees it alive for the first time since boot or
// back from the dead (the OnAlive kick). The boot kicks are how a
// restarted replica pulls what it missed while it was down, however
// briefly; the tick repairs a push that failed while the peer stayed
// alive, the gaps a suspect flap leaves, and a corrupt local copy.
func (m *Manager) antiEntropyLoop() {
	t := time.NewTicker(m.aeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.auxStop:
			return
		case peer := <-m.aeKick:
			m.antiEntropySync(peer)
		case <-t.C:
			m.AntiEntropyNow()
		}
	}
}

// AntiEntropyNow runs one synchronous pass that pulls from every alive
// peer and returns the number of envelopes this node repaired. Tests use
// it; the background loop calls it on each tick.
func (m *Manager) AntiEntropyNow() int {
	if m.membership == nil || m.replicas < 2 {
		return 0
	}
	repairs := 0
	for _, p := range m.membership.Snapshot() {
		if p.Self || p.State != cluster.StateAlive {
			continue
		}
		repairs += m.antiEntropySync(p.URL)
	}
	return repairs
}

// antiEntropySync repairs this node's durable tier from one peer's: it
// pulls every envelope the peer lists whose replica set includes this node
// and which this node cannot read — absent and corrupt read the same, so a
// corrupt local copy is repaired from the healthy peer. Returns the number
// of envelopes pulled.
func (m *Manager) antiEntropySync(peer string) int {
	remote, err := m.fetchKeys(peer)
	if err != nil {
		m.log.Warn("anti-entropy key exchange failed", "peer", peer, "error", err)
		return 0
	}
	ring := m.membership.Ring()
	self := m.membership.Self()
	repairs := 0
	for _, fp := range remote {
		if !slices.Contains(ring.Owners(fp, m.replicas), self) {
			continue
		}
		if _, ok := m.cache.Durable(fp); ok {
			continue // readable and valid locally; nothing to repair
		}
		res, err := m.fetchEntry(peer, fp)
		if err != nil {
			// The peer's copy may itself be corrupt (it serves only
			// validated envelopes, so corruption surfaces as a 404 here) or
			// the peer died mid-sync; skip, never fail the pass.
			continue
		}
		m.AdoptEnvelope(fp, res)
		repairs++
	}
	if repairs > 0 {
		m.aeRepairs.Add(uint64(repairs))
		m.log.Info("anti-entropy repaired envelopes", "peer", peer, "repairs", repairs)
	}
	return repairs
}

// fetchKeys GETs a peer's durable key listing.
func (m *Manager) fetchKeys(peer string) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.proxyTimeout)
	defer cancel()
	body, err := m.peers.get(ctx, peer, "/v1/antientropy/keys", "", 64<<20)
	if err != nil {
		return nil, err
	}
	// The key listing stays on encoding/json: it runs on a slow
	// background cadence, far off the sweep path.
	var doc antiEntropyKeys
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("keys from %s: %w", peer, err)
	}
	return doc.Keys, nil
}

// fetchEntry GETs one validated envelope from a peer, rejecting a response
// whose embedded fingerprint disagrees with the request — a renamed or
// confused entry can only miss, never land under the wrong key.
func (m *Manager) fetchEntry(peer, fp string) (dynring.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.proxyTimeout)
	defer cancel()
	body, err := m.peers.get(ctx, peer, "/v1/antientropy/entry", "fp="+url.QueryEscape(fp), maxEnvelopeBytes)
	if err != nil {
		return dynring.Result{}, err
	}
	doc, err := decodeReplicate(body)
	if err != nil {
		return dynring.Result{}, fmt.Errorf("entry %s from %s: %w", fp, peer, err)
	}
	if doc.Fingerprint != fp {
		return dynring.Result{}, fmt.Errorf("entry %s from %s: body carries fingerprint %q", fp, peer, doc.Fingerprint)
	}
	return doc.Result, nil
}
