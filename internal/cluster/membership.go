package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State is a peer's health as seen by this node.
type State int

const (
	// StateSuspect is the initial state of every peer (seed-configured or
	// gossip-discovered) and the state after a first probe failure: the
	// peer is still routed to, but not yet trusted as alive.
	StateSuspect State = iota
	// StateAlive means the most recent probe succeeded.
	StateAlive
	// StateDead means Config.DeadAfter consecutive probes failed. Dead
	// peers keep their ring positions (placement never shifts on health),
	// but routing falls back to local execution for keys they own, and
	// probing backs off exponentially.
	StateDead
	// StateLeft means the peer announced a graceful shutdown. Left peers
	// are removed from the ring — unlike death, leaving is deliberate and
	// permanent until a fresh join — and are no longer probed.
	StateLeft
)

// String implements fmt.Stringer with the wire names used by /v1/cluster.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	default:
		return "suspect"
	}
}

// PeerInfo is a point-in-time snapshot of one member.
type PeerInfo struct {
	URL      string
	Self     bool
	State    State
	Failures int       // consecutive probe failures
	LastSeen time.Time // last successful probe (zero: never)
}

// Config configures a Membership.
type Config struct {
	// Self is this node's advertised base URL (e.g. "http://10.0.0.1:8080").
	// It is always a ring member and always reported alive.
	Self string
	// Peers are the seed peers to bootstrap from; Self is filtered out, so
	// every node of a cluster can be started with the identical list.
	Peers []string
	// ProbeInterval is the health-probe period (default 1s); ProbeTimeout
	// bounds one probe (default ProbeInterval). A probe that outlives
	// ProbeTimeout is a failed probe, so a peer that answers but answers
	// too slowly (a gray failure) goes suspect and then dead exactly like
	// one that does not answer at all.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// DeadAfter is the consecutive-failure count that flips a peer from
	// suspect to dead (default 3).
	DeadAfter int
	// Probe overrides the prober: it returns the peer's own member list
	// (the gossip payload) or an error, and must honour ctx's deadline.
	// Nil means the default HTTP probe of GET <peer>/v1/cluster.
	Probe func(ctx context.Context, peerURL string) ([]string, error)
	// OnRejoin, when non-nil, is invoked (without the membership lock
	// held) each time a peer returns from the dead — a successful probe of
	// a peer in StateDead — or re-enters after a graceful leave. It fires
	// exactly once per recovery: an alive→suspect→alive flap inside the
	// DeadAfter window never reaches StateDead and therefore never fires,
	// which is what keeps rejoin-triggered work (anti-entropy pushes,
	// Rejoin broadcasts) from doubling on a transient probe loss.
	OnRejoin func(peerURL string)
	// HTTPClient backs the default prober and Leave broadcasts; nil means
	// a private client (per-probe timeouts come from ProbeTimeout).
	HTTPClient *http.Client
	// Logger, when non-nil, receives structured state-transition and gossip
	// records. Nil discards them.
	Logger *slog.Logger
}

// peer is the mutable tracking record of one remote member.
type peer struct {
	state     State
	failures  int
	lastSeen  time.Time
	nextProbe time.Time
	probing   bool // a probe goroutine is in flight
}

// Membership tracks the health of a cluster's peers and owns the placement
// ring. It bootstraps from seed peers, discovers further members by
// merging the member lists returned by successful probes (gossip joins),
// probes every non-left peer on ProbeInterval with exponential backoff on
// the dead, and exposes a deterministic Ring over the current member set.
// All methods are safe for concurrent use.
type Membership struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger

	// probeFailures counts failed probes (and out-of-band MarkFailed
	// evidence) since construction; /metrics exposes it.
	probeFailures atomic.Uint64

	mu    sync.Mutex
	peers map[string]*peer
	ring  *Ring // lazily rebuilt when the member set changes
	now   func() time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMembership builds a membership table from cfg, seeded with
// cfg.Peers. Call Start to begin probing and Close to stop.
func NewMembership(cfg Config) *Membership {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	m := &Membership{
		cfg:    cfg,
		client: cfg.HTTPClient,
		log:    cfg.Logger,
		peers:  make(map[string]*peer),
		now:    time.Now,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if m.client == nil {
		m.client = &http.Client{}
	}
	if m.log == nil {
		m.log = slog.New(slog.DiscardHandler)
	}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self {
			m.peers[p] = &peer{state: StateSuspect}
		}
	}
	return m
}

// Self is this node's advertised URL.
func (m *Membership) Self() string { return m.cfg.Self }

// Start launches the probe loop. It returns immediately; probes run until
// Close.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		m.probeDue() // bootstrap probe without waiting a full interval
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.probeDue()
			}
		}
	}()
}

// Close stops the probe loop. In-flight probes finish in the background;
// their results still land (harmlessly) in the table.
func (m *Membership) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// probeDue launches one probe goroutine per peer whose backoff has
// expired. A peer with a probe already in flight is skipped, so a slow or
// black-holing peer accumulates one outstanding probe, not one per tick.
func (m *Membership) probeDue() {
	now := m.now()
	m.mu.Lock()
	var due []string
	for url, p := range m.peers {
		if p.state == StateLeft || p.probing || now.Before(p.nextProbe) {
			continue
		}
		p.probing = true
		due = append(due, url)
	}
	m.mu.Unlock()
	for _, url := range due {
		go m.probeOne(url)
	}
}

// probeOne runs a single health probe against url and applies the result.
// The probe is bounded by ProbeTimeout: a peer too slow to answer inside
// it fails the probe, which is how a gray (slow but alive) peer is
// detected and routed around.
func (m *Membership) probeOne(url string) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
	defer cancel()
	members, err := m.probe(ctx, url)
	m.mu.Lock()
	p, ok := m.peers[url]
	if !ok || p.state == StateLeft {
		if ok {
			p.probing = false
		}
		m.mu.Unlock()
		return
	}
	p.probing = false
	if err != nil {
		m.recordFailureLocked(url, p, err)
		m.mu.Unlock()
		return
	}
	if p.state != StateAlive {
		m.log.Info("peer alive", "peer", url)
	}
	// Only a return from StateDead is a recovery; a suspect→alive flap is
	// a transient probe loss and must not trigger rejoin work.
	rejoined := p.state == StateDead
	p.state = StateAlive
	p.failures = 0
	p.lastSeen = m.now()
	p.nextProbe = p.lastSeen.Add(m.cfg.ProbeInterval)
	m.mergeLocked(members)
	m.mu.Unlock()
	if rejoined && m.cfg.OnRejoin != nil {
		m.cfg.OnRejoin(url)
	}
}

// probe dispatches to the configured prober or the default HTTP one.
func (m *Membership) probe(ctx context.Context, url string) ([]string, error) {
	if m.cfg.Probe != nil {
		return m.cfg.Probe(ctx, url)
	}
	return m.httpProbe(ctx, url)
}

// clusterDoc is the subset of the /v1/cluster document the prober reads;
// field names match the dynring wire types.
type clusterDoc struct {
	Peers []struct {
		URL   string `json:"url"`
		State string `json:"state"`
	} `json:"peers"`
}

// httpProbe is the default prober: GET <peer>/v1/cluster. Any 2xx counts
// as alive; the response's member list (minus peers the remote itself
// considers left) is the gossip payload. A 2xx whose body fails to parse
// still counts as alive — health and gossip are separable.
func (m *Membership) httpProbe(ctx context.Context, url string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/cluster", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("probe %s: %s", url, resp.Status)
	}
	var doc clusterDoc
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc) != nil {
		return nil, nil
	}
	var members []string
	for _, p := range doc.Peers {
		if p.State != StateLeft.String() {
			members = append(members, p.URL)
		}
	}
	return members, nil
}

// recordFailureLocked applies one probe (or routing) failure: suspect on
// the first, dead after DeadAfter consecutive ones, and an exponentially
// backed-off next probe (capped at 32 intervals) so a long-dead peer costs
// a trickle, not a stream, of timeouts. Callers hold m.mu.
func (m *Membership) recordFailureLocked(url string, p *peer, err error) {
	m.probeFailures.Add(1)
	p.failures++
	prev := p.state
	if p.failures >= m.cfg.DeadAfter {
		p.state = StateDead
	} else {
		p.state = StateSuspect
	}
	if p.state != prev {
		m.log.Warn("peer state changed",
			"peer", url, "state", p.state.String(), "failures", p.failures, "error", err)
	}
	backoff := min(p.failures, 5)
	p.nextProbe = m.now().Add(m.cfg.ProbeInterval << backoff)
}

// mergeLocked adds gossip-discovered members to the table (a join): every
// URL not yet known — and not Self — enters as suspect with an immediate
// probe due, so membership spreads one probe interval per hop without any
// node needing the full seed list. Callers hold m.mu.
func (m *Membership) mergeLocked(members []string) {
	for _, url := range members {
		if url == "" || url == m.cfg.Self {
			continue
		}
		if _, ok := m.peers[url]; ok {
			continue
		}
		m.peers[url] = &peer{state: StateSuspect}
		m.ring = nil
		m.log.Info("peer discovered via gossip", "peer", url)
	}
}

// ProbeFailures returns the count of failed probes (including MarkFailed
// evidence) since construction.
func (m *Membership) ProbeFailures() uint64 { return m.probeFailures.Load() }

// MarkFailed records out-of-band failure evidence for a peer — typically a
// refused or timed-out proxy request — applying the same suspect/dead
// transition as a failed probe and pulling its next probe forward so the
// prober confirms promptly. Unknown URLs are ignored.
func (m *Membership) MarkFailed(url string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[url]
	if !ok || p.state == StateLeft {
		return
	}
	m.recordFailureLocked(url, p, err)
	p.nextProbe = m.now()
}

// MarkLeft records a peer's graceful-leave announcement: it is removed
// from the ring and no longer probed. A later gossip mention does not
// resurrect it; only Rejoin (a fresh announcement from the peer itself)
// does.
func (m *Membership) MarkLeft(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[url]
	if !ok || p.state == StateLeft {
		return
	}
	p.state = StateLeft
	m.ring = nil
	m.log.Info("peer left", "peer", url)
}

// Rejoin re-admits a peer (or admits a brand-new one) as suspect with an
// immediate probe due. It is the receiving side of a node booting back up
// and announcing itself: a left or unknown peer re-enters the ring, and a
// peer still tracked as dead or suspect has its probe pulled forward and
// its backoff reset, so a restarted node is confirmed alive within one
// probe round trip instead of waiting out the dead-peer backoff.
func (m *Membership) Rejoin(url string) {
	if url == "" || url == m.cfg.Self {
		return
	}
	m.mu.Lock()
	p, ok := m.peers[url]
	if ok && p.state != StateLeft {
		if p.state != StateAlive {
			p.failures = 0
			p.nextProbe = m.now()
			m.log.Info("peer announced rejoin, probing now", "peer", url)
		}
		m.mu.Unlock()
		return
	}
	// Readmitting a previously-left peer is a genuine recovery; a
	// brand-new join is not (there is nothing to reconcile yet).
	rejoined := ok && p.state == StateLeft
	m.peers[url] = &peer{state: StateSuspect}
	m.ring = nil
	m.log.Info("peer joined", "peer", url)
	m.mu.Unlock()
	if rejoined && m.cfg.OnRejoin != nil {
		m.cfg.OnRejoin(url)
	}
}

// Routable reports whether url should receive a routed request right now
// (proxy hops, replication pushes): it is this node, or a peer whose last
// probe succeeded inside ProbeTimeout. Suspect, dead and left peers are
// skipped, so routing moves to the next replica instead of waiting out a
// proxy timeout against them.
func (m *Membership) Routable(url string) bool {
	if url == m.cfg.Self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[url]
	return ok && p.state == StateAlive
}

// Snapshot returns every member — Self first, then peers sorted by URL.
func (m *Membership) Snapshot() []PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerInfo, 0, len(m.peers)+1)
	out = append(out, PeerInfo{URL: m.cfg.Self, Self: true, State: StateAlive})
	urls := make([]string, 0, len(m.peers))
	for url := range m.peers {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		p := m.peers[url]
		out = append(out, PeerInfo{
			URL:      url,
			State:    p.state,
			Failures: p.failures,
			LastSeen: p.lastSeen,
		})
	}
	return out
}

// Ring returns the placement ring over the current member set (Self plus
// every peer that has not left). The ring is rebuilt only when the member
// set changes; health transitions never move keys.
func (m *Membership) Ring() *Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ring == nil {
		members := make([]string, 0, len(m.peers)+1)
		members = append(members, m.cfg.Self)
		for url, p := range m.peers {
			if p.state != StateLeft {
				members = append(members, url)
			}
		}
		m.ring = NewRing(members, DefaultVNodes)
	}
	return m.ring
}

// Leave broadcasts this node's graceful shutdown to every non-left peer
// (best-effort POST <peer>/v1/cluster/leave within timeout), so owners
// stop proxying to it immediately instead of waiting out DeadAfter probe
// failures.
func (m *Membership) Leave(timeout time.Duration) {
	m.broadcast("/v1/cluster/leave", timeout)
}

// AnnounceJoin broadcasts this node's (re)entry to every known peer
// (best-effort POST <peer>/v1/cluster/join within timeout). A freshly
// booted node calls it so peers that marked it dead — or saw it leave —
// re-probe it immediately; without the announcement a restart is only
// discovered when the dead-peer backoff expires.
func (m *Membership) AnnounceJoin(timeout time.Duration) {
	m.broadcast("/v1/cluster/join", timeout)
}

// broadcast best-effort POSTs {"url": self} to path on every non-left
// peer, bounded by timeout in total.
func (m *Membership) broadcast(path string, timeout time.Duration) {
	m.mu.Lock()
	var urls []string
	for url, p := range m.peers {
		if p.state != StateLeft {
			urls = append(urls, url)
		}
	}
	m.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, url := range urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"url":%q}`, m.cfg.Self)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, strings.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := m.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
			}
		}(url)
	}
	wg.Wait()
}
