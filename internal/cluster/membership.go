package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a peer's health as seen by this node.
type State int

const (
	// StateSuspect is the initial state of every peer and the state after
	// a first probe failure: the peer is not routed to until a probe
	// succeeds.
	StateSuspect State = iota
	// StateAlive means the most recent probe succeeded.
	StateAlive
	// StateDead means Config.DeadAfter consecutive probes failed. Dead
	// peers keep their ring positions (placement never shifts on health)
	// and are probed every ProbeInterval like any other peer, but routing
	// skips them for their replicas or local execution.
	StateDead
)

// String implements fmt.Stringer with the wire names used by /v1/cluster.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDead:
		return "dead"
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
	// Peers is the cluster's member list. Self is filtered out, so every
	// node of a cluster can be started with the identical list; the ring
	// is Self plus Peers, fixed for the membership's lifetime.
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
	// Probe overrides the prober: it returns nil when the peer is healthy
	// and must honour ctx's deadline. Nil means the default HTTP probe of
	// GET <peer>/v1/cluster.
	Probe func(ctx context.Context, peerURL string) error
	// OnAlive, when non-nil, is invoked (without the membership lock
	// held) when a peer's probe succeeds for the first time since this
	// membership was built, and each time a peer returns from the dead —
	// a successful probe of a peer in StateDead. An alive→suspect→alive
	// flap inside the DeadAfter window never reaches StateDead and
	// therefore never fires, which keeps the work it starts (anti-entropy
	// pulls) from repeating on a transient probe loss.
	OnAlive func(peerURL string)
	// HTTPClient backs the default prober; nil means a private client
	// (per-probe timeouts come from ProbeTimeout).
	HTTPClient *http.Client
	// Logger, when non-nil, receives structured state-transition records.
	// Nil discards them.
	Logger *slog.Logger
}

// peer is the mutable tracking record of one remote member.
type peer struct {
	state    State
	failures int
	lastSeen time.Time
	probing  bool // a probe goroutine is in flight
}

// Membership tracks the health of a cluster's peers and owns the placement
// ring. The member set is the configured one, Self plus Config.Peers, and
// never changes; probes, every ProbeInterval for every peer, are the only
// input that does, and they change routing (Routable), never placement
// (Ring). All methods are safe for concurrent use.
type Membership struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger
	ring   *Ring // built once from the member set; immutable

	// probeFailures counts failed probes (and out-of-band MarkFailed
	// evidence) since construction; /metrics exposes it.
	probeFailures atomic.Uint64

	mu    sync.Mutex
	peers map[string]*peer

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMembership builds a membership table and its ring from cfg. Call
// Start to begin probing and Close to stop.
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
		ring:   NewRing(append([]string{cfg.Self}, cfg.Peers...), DefaultVNodes),
		peers:  make(map[string]*peer),
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

// probeDue launches one probe goroutine per peer. A peer with a probe
// already in flight is skipped, so a slow or black-holing peer accumulates
// one outstanding probe, not one per tick.
func (m *Membership) probeDue() {
	m.mu.Lock()
	var due []string
	for url, p := range m.peers {
		if p.probing {
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
	err := m.probe(ctx, url)
	m.mu.Lock()
	p := m.peers[url]
	p.probing = false
	if err != nil {
		m.recordFailureLocked(url, p, err)
		m.mu.Unlock()
		return
	}
	if p.state != StateAlive {
		m.log.Info("peer alive", "peer", url)
	}
	// A first sighting or a return from StateDead fires the hook; a
	// suspect→alive flap is a transient probe loss and does not.
	fire := p.lastSeen.IsZero() || p.state == StateDead
	p.state = StateAlive
	p.failures = 0
	p.lastSeen = time.Now()
	m.mu.Unlock()
	if hook := m.cfg.OnAlive; fire && hook != nil {
		hook(url)
	}
}

// probe dispatches to the configured prober or the default HTTP one.
func (m *Membership) probe(ctx context.Context, url string) error {
	if m.cfg.Probe != nil {
		return m.cfg.Probe(ctx, url)
	}
	return m.httpProbe(ctx, url)
}

// httpProbe is the default prober: GET <peer>/v1/cluster, where any 2xx
// counts as alive. The body is drained and discarded, so the connection
// can be reused.
func (m *Membership) httpProbe(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/cluster", nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("probe %s: %s", url, resp.Status)
	}
	return nil
}

// recordFailureLocked applies one probe (or routing) failure: suspect on
// the first, dead after DeadAfter consecutive ones. Callers hold m.mu.
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
}

// ProbeFailures returns the count of failed probes (including MarkFailed
// evidence) since construction.
func (m *Membership) ProbeFailures() uint64 { return m.probeFailures.Load() }

// MarkFailed records out-of-band failure evidence for a peer — typically a
// refused or timed-out proxy request — applying the same suspect/dead
// transition as a failed probe; the next probe confirms or reverses it.
// Unknown URLs are ignored.
func (m *Membership) MarkFailed(url string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[url]; ok {
		m.recordFailureLocked(url, p, err)
	}
}

// Routable reports whether url should receive a routed request right now
// (proxy hops, replication pushes): it is this node, or a peer whose last
// probe succeeded inside ProbeTimeout. Suspect and dead peers are
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

// Ring returns the placement ring over the member set, Self plus
// Config.Peers. It is built once; health transitions never move keys.
func (m *Membership) Ring() *Ring { return m.ring }
