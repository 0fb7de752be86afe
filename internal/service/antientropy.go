package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
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
// queue. Pushes are best-effort: a dead replica misses the push and is
// healed by anti-entropy instead.
//
// Anti-entropy makes replica -data directories converge to the set union
// of their envelopes. Content addressing is what reduces reconciliation to
// a union: equal fingerprints imply identical envelopes, so there is
// nothing to merge and no version to compare — a replica either holds a
// fingerprint's envelope or it doesn't. Each pass exchanges key listings
// with one peer, pulls envelopes this node should hold but cannot read
// (absent or corrupt — both read as absent, so corruption is repaired, not
// special-cased), and pushes envelopes the peer should hold but does not
// list. Both directions re-read and validate every envelope they ship:
// the serving side's Durable read rejects a corrupt entry, so corruption
// can be repaired from a healthy peer but never propagated to one.

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
// probe timeout — is skipped, and anti-entropy repairs it on recovery.
// Pushes run serially on one loop, each bounded by the proxy timeout, so
// waiting on a gray peer would back the bounded queue up into every
// execution on this node.
func (m *Manager) pushReplicas(fp string, res dynring.Result) {
	self := m.membership.Self()
	var body []byte
	for _, o := range m.membership.Ring().Owners(fp, m.replicas) {
		if o == self || !m.membership.Routable(o) {
			continue
		}
		if body == nil {
			body = appendReplicate(nil, fp, &res)
		}
		if err := m.postReplicate(o, body); err != nil {
			m.log.Warn("replication push failed", "fingerprint", fp, "target", o, "error", err)
		}
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
// It is the receiving side of /v1/replicate and anti-entropy pushes; the
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

// antiEntropyLoop paces background reconciliation: a full sweep over alive
// peers every aeInterval, plus immediate targeted syncs when a peer
// returns from the dead (the OnRejoin kick) — that is how envelopes stolen
// or executed on its behalf while it was down land back on its disk tier
// without waiting out the interval.
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

// AntiEntropyNow runs one synchronous reconciliation pass against every
// alive peer and returns the number of envelopes repaired (pulled or
// pushed). Tests and targeted recovery use it; the background loop calls
// it on each tick.
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

// antiEntropySync reconciles this node's durable tier with one peer's:
// pull every envelope the peer lists that this node should hold (self in
// its replica set) but cannot read — absent and corrupt read the same, so
// a corrupt local copy is repaired from the healthy peer — then push every
// envelope this node holds that the peer should hold but does not list.
// Returns the number of envelopes repaired in either direction.
func (m *Manager) antiEntropySync(peer string) int {
	remote, err := m.fetchKeys(peer)
	if err != nil {
		m.log.Warn("anti-entropy key exchange failed", "peer", peer, "error", err)
		return 0
	}
	ring := m.membership.Ring()
	self := m.membership.Self()
	inSet := func(fp, member string) bool {
		for _, o := range ring.Owners(fp, m.replicas) {
			if o == member {
				return true
			}
		}
		return false
	}
	repairs := 0
	remoteSet := make(map[string]bool, len(remote))
	for _, fp := range remote {
		remoteSet[fp] = true
		if !inSet(fp, self) {
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
	for _, fp := range m.cache.DurableKeys() {
		if remoteSet[fp] || !inSet(fp, peer) {
			continue
		}
		res, ok := m.cache.Durable(fp)
		if !ok {
			continue // our own copy is corrupt; it must not propagate
		}
		if err := m.postReplicate(peer, appendReplicate(nil, fp, &res)); err != nil {
			continue
		}
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
