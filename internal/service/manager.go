package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/rescache"
	"dynring/internal/service/sched"
	"dynring/internal/sweep"
	"dynring/internal/telemetry"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: manager closed")

// Options configure a Manager.
type Options struct {
	// Workers bounds the shared pool all jobs run on; non-positive means
	// runtime.NumCPU().
	Workers int
	// CacheSize bounds the in-memory result cache in entries; non-positive
	// disables the memory tier.
	CacheSize int
	// DiskDir, when non-empty, roots the durable content-addressed result
	// tier (ringsimd -data): results survive restarts and are warm-started
	// into the memory tier on boot.
	DiskDir string
	// JobHistory bounds how many settled jobs are retained for status and
	// result queries; when exceeded, the oldest settled jobs are evicted
	// (their IDs then answer 404). Running jobs are never evicted.
	// Non-positive means the default of 1024.
	JobHistory int
	// Cluster, when Cluster.Self is set, runs the node as a member of a
	// sharded cluster: scenarios whose fingerprint another node owns are
	// proxied there instead of executed locally.
	Cluster ClusterOptions
	// Tenants, when non-empty, turns on the admission layer: work-creating
	// requests must present one of these tenants' API keys, each tenant is
	// scheduled by its weight and bounded by its quotas, and per-tenant
	// dynring_admission_* metric families are registered. Empty means the
	// single anonymous tenant with no quotas — scheduling is then identical
	// to the pre-tenant service. Must pass ValidateTenants.
	Tenants []TenantConfig
	// Logger, when non-nil, receives structured operational records
	// (cluster state transitions, skipped disk entries, proxy fallbacks,
	// job lifecycle). The manager derives per-component child loggers
	// ("service", "cluster", "cache") from it. Nil discards everything.
	Logger *slog.Logger
}

// ClusterOptions configure cluster membership. The zero value means
// standalone (no ring, no probing, every scenario executes locally).
type ClusterOptions struct {
	// Self is this node's advertised base URL (e.g. "http://host:8080");
	// setting it enables cluster mode. It must be the URL peers can reach
	// this node at.
	Self string
	// Peers is the cluster's member list, the same on every node; Self is
	// filtered out, so it may include this node. The ring is Self plus
	// Peers, fixed for the node's lifetime.
	Peers []string
	// ProbeInterval and ProbeTimeout tune health probing; zero means the
	// membership defaults (1s, and probe timeout = interval). The probe
	// timeout is further capped at ProxyTimeout: a peer whose cheap health
	// probe takes longer than we would wait for real work fails the probe,
	// goes suspect (unroutable) and, after repeated slow probes, dead.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Replicas is the replica-set size k: each fingerprint is placed on its
	// ring owner plus the next k-1 distinct successors, completed envelopes
	// are pushed to every replica's disk tier, and proxying tries owner
	// then replicas before the local fallback. Non-positive or 1 means no
	// replication — exactly the pre-replica single-owner behavior. All
	// nodes must agree on it.
	Replicas int
	// Transport, when non-nil, underlies every outbound cluster request —
	// probes, proxy hops, replication pushes and anti-entropy fetches. It
	// is the fault-injection seam clustertest wraps; nil means the default
	// transport.
	Transport http.RoundTripper
	// AntiEntropyInterval paces the pass in which this node pulls, from
	// every alive peer, the envelopes its own disk tier should hold but
	// cannot read (zero: a 30s default). Pulls also start the moment a peer
	// is first seen alive, or alive again after dead. Only meaningful with
	// Replicas > 1 and a DiskDir.
	AntiEntropyInterval time.Duration
	// ProxyTimeout bounds every outbound replica RPC: replication pushes
	// (POST /v1/replicate) and anti-entropy fetches as a whole, and proxy
	// batches (POST /v1/run) per streamed line — a batch fails once it has
	// streamed nothing for this long. It is the gray-failure backstop:
	// without it a slow-but-alive owner holds the coordinator's rows for
	// as long as the peer cares to stall. Zero means the 10s default
	// (ringsimd -proxy-timeout). It is the one bound on a hop.
	ProxyTimeout time.Duration
}

// defaultJobHistory is the settled-job retention bound when Options leaves
// JobHistory unset. Without a bound a long-running service would pin every
// grid and Result it ever served.
const defaultJobHistory = 1024

// defaultAntiEntropyInterval paces replica disk-tier reconciliation when
// ClusterOptions leaves it unset.
const defaultAntiEntropyInterval = 30 * time.Second

// replicateQueueDepth bounds the asynchronous replication-push queue.
// Like the disk tier's write queue, a full queue blocks the producer
// (backpressure) rather than silently dropping replication.
const replicateQueueDepth = 256

// defaultProxyTimeout bounds replica RPCs when ClusterOptions.ProxyTimeout
// is unset: proxy hops, replication pushes, and anti-entropy fetches. It
// is the historical replicaRPCTimeout value — generous enough for a slow
// replica, finite so a gray one cannot pin goroutines forever.
const defaultProxyTimeout = 10 * time.Second

// task is one schedulable unit: scenario i of job j.
type task struct {
	j *Job
	i int
}

// Manager owns the admission layer, the shared worker pool, the job table,
// the tiered result cache and (in cluster mode) the membership table. It is
// split in two along the submit path:
//
//   - Admission (this type): resolve the request to a tenant, enforce that
//     tenant's quotas (max queued scenarios, max concurrent jobs —
//     violations surface as ErrQuotaExceeded, HTTP 429), and register the
//     job in the job table. Rejection happens before anything is queued,
//     so an over-quota tenant can never occupy queue positions that would
//     delay anyone else.
//   - Scheduling (the sched package): weighted deficit round-robin across
//     tenants, and task-level fair round-robin between a tenant's jobs —
//     one scenario from each in turn, so a huge grid cannot starve a small
//     one submitted after it.
//     With no tenant config everything runs as the single anonymous
//     tenant, which collapses the policy to exactly the pre-tenant fair
//     round-robin ring.
//
// Each job has its own context; cancelling a job aborts its in-flight
// runs and settles its pending rows without disturbing other jobs.
//
// In cluster mode each fingerprint has one owning node on the placement
// ring. A scenario owned elsewhere is proxied to its owner (batched
// POST /v1/run, see hop.go) when that owner looks alive, and executed
// locally otherwise — the cluster degrades to correct-but-duplicated work,
// never to unavailability.
// All local executions funnel through a fingerprint-keyed rescache.Group, so
// the owner runs each fingerprint at most once no matter how many workers,
// jobs or proxy hops ask for it concurrently: cluster-wide exactly-once is
// routing (concentrate a fingerprint on its owner) plus this dedupe. The
// result cache and this dedupe are deliberately tenant-blind: results are
// keyed by scenario fingerprint alone, so identical work from different
// tenants is charged the admission of both but executed once.
type Manager struct {
	workers    int
	history    int
	replicas   int // replica-set size k; 1 means unreplicated
	cache      *Cache
	membership *cluster.Membership // nil when standalone
	peers      *peerClient         // nil when standalone
	log        *slog.Logger
	registry   *telemetry.Registry
	met        *metrics
	executions atomic.Uint64
	proxied    atomic.Uint64
	settled    atomic.Int64 // retained settled jobs; guards prune scans

	// Replication and anti-entropy state (cluster mode with Replicas > 1).
	// replicaHits counts scenarios served by proxying to a non-owner
	// replica; aeRepairs counts envelopes this node's anti-entropy pulls
	// landed on its disk tier.
	replicaHits atomic.Uint64
	aeRepairs   atomic.Uint64
	aeInterval  time.Duration
	aeKick      chan string   // peers to pull from now (OnAlive)
	auxStop     chan struct{} // stops the replication + anti-entropy loops
	auxStopOnce sync.Once
	auxWG       sync.WaitGroup
	replq       chan replItem

	// proxyTimeout bounds every replica RPC (gray-failure resilience).
	proxyTimeout time.Duration

	// Admission state: tenants by name and by API key (both immutable
	// after newManager; tenantList preserves declaration order for stats),
	// plus the count of rejected credentials. byKey is empty on a node
	// with no tenant config — every request is then the anonymous tenant.
	tenants      map[string]*tenantState
	byKey        map[string]*tenantState
	tenantList   []*tenantState
	unauthorized atomic.Uint64

	// runners pools engine Runners for the singleflight execution path: a
	// Runner is single-goroutine state, so each execution checks one out
	// for its duration. Pooling keeps the engine's zero-alloc reuse across
	// consecutive runs without pinning one Runner per worker.
	runners sync.Pool
	// group deduplicates concurrent local executions of one fingerprint in
	// front of the cache tiers.
	group *rescache.Group[dynring.Result]

	mu     sync.Mutex
	cond   *sync.Cond // wakes idle workers on submit/close
	jobs   map[string]*Job
	order  []*Job                 // submission order, for settled-job eviction
	sched  *sched.Scheduler[*Job] // dispatch policy; driven under mu
	nextID int
	closed bool

	wg sync.WaitGroup
	// hopWG counts the proxy dispatcher's sender goroutines (hop.go).
	hopWG sync.WaitGroup
}

// New starts a manager and its worker pool. The only construction failure
// is an unusable DiskDir. Callers must Close it.
func New(opts Options) (*Manager, error) {
	m, err := newManager(opts)
	if err != nil {
		return nil, err
	}
	if m.membership != nil {
		m.membership.Start()
		if m.replicas > 1 {
			m.auxWG.Add(1)
			go func() {
				defer m.auxWG.Done()
				m.replicationLoop()
			}()
			if m.cache.disk != nil {
				m.auxWG.Add(1)
				go func() {
					defer m.auxWG.Done()
					m.antiEntropyLoop()
				}()
			}
		}
	}
	m.wg.Add(m.workers)
	for w := 0; w < m.workers; w++ {
		go func() {
			defer m.wg.Done()
			m.work()
		}()
	}
	return m, nil
}

// newManager builds a manager without starting workers or probes; tests
// use it to drive the scheduler by hand.
func newManager(opts Options) (*Manager, error) {
	base := opts.Logger
	if base == nil {
		base = slog.New(slog.DiscardHandler)
	}
	if err := ValidateTenants(opts.Tenants); err != nil {
		return nil, err
	}
	m := &Manager{
		workers:  sweep.Workers(opts.Workers, 0),
		history:  opts.JobHistory,
		log:      base.With("component", "service"),
		registry: telemetry.NewRegistry(),
		jobs:     make(map[string]*Job),
		sched:    sched.New[*Job](),
		tenants:  make(map[string]*tenantState),
		byKey:    make(map[string]*tenantState),
	}
	if m.history <= 0 {
		m.history = defaultJobHistory
	}
	// The anonymous tenant always exists (quota-free, weight 1): it is the
	// only tenant when no config is given, and the fallback principal for
	// in-process submissions (tests, library callers) when one is. Configured
	// tenants are registered after it, in declaration order.
	anon := &tenantState{cfg: TenantConfig{Name: AnonymousTenant, Weight: 1}}
	m.tenants[AnonymousTenant] = anon
	m.sched.AddTenant(AnonymousTenant, 1)
	for _, tc := range opts.Tenants {
		// The scheduler raises weights below 1 to 1; so does the config
		// that /statsz reports.
		tc.Weight = max(tc.Weight, 1)
		ts := &tenantState{cfg: tc}
		m.tenants[tc.Name] = ts
		m.byKey[tc.Key] = ts
		m.tenantList = append(m.tenantList, ts)
		m.sched.AddTenant(tc.Name, tc.Weight)
	}
	// The durable tier's rescache layer speaks printf; adapt it onto the
	// structured logger — its lines are rare (corrupt entries at boot).
	cacheLog := base.With("component", "cache")
	cache, err := NewTieredCache(opts.CacheSize, opts.DiskDir, func(format string, args ...any) {
		cacheLog.Warn(fmt.Sprintf(format, args...))
	})
	if err != nil {
		return nil, err
	}
	m.cache = cache
	m.group = rescache.NewGroup(cache, dynring.Result.Clone)
	m.runners.New = func() any { return dynring.NewRunner() }
	m.proxyTimeout = opts.Cluster.ProxyTimeout
	if m.proxyTimeout <= 0 {
		m.proxyTimeout = defaultProxyTimeout
	}
	if opts.Cluster.Self != "" {
		m.replicas = opts.Cluster.Replicas
		if m.replicas < 1 {
			m.replicas = 1
		}
		m.aeInterval = opts.Cluster.AntiEntropyInterval
		if m.aeInterval <= 0 {
			m.aeInterval = defaultAntiEntropyInterval
		}
		m.peers = newPeerClient(opts.Cluster.Transport)
		// One slot per member: every peer kicks once when this node first
		// sees it alive, all of them at boot, and a smaller buffer would
		// drop some of those kicks and leave their gaps to the next tick.
		m.aeKick = make(chan string, len(opts.Cluster.Peers))
		m.auxStop = make(chan struct{})
		m.replq = make(chan replItem, replicateQueueDepth)
		// Cap the probe timeout at the proxy budget (see ClusterOptions.
		// ProbeTimeout); unset values take the membership defaults first.
		probeTimeout := cmp.Or(max(opts.Cluster.ProbeTimeout, 0), max(opts.Cluster.ProbeInterval, 0), time.Second)
		m.membership = cluster.NewMembership(cluster.Config{
			Self:          opts.Cluster.Self,
			Peers:         opts.Cluster.Peers,
			ProbeInterval: opts.Cluster.ProbeInterval,
			ProbeTimeout:  min(probeTimeout, m.proxyTimeout),
			HTTPClient:    &http.Client{Transport: m.peers.rt},
			Logger:        base.With("component", "cluster"),
			// A peer seen alive for the first time since boot, or back from
			// the dead (never after a transient flap), is pulled from at
			// once: that is how a restarted node lands what it missed while
			// it was down, and a node that lost contact catches up.
			OnAlive: func(url string) {
				select {
				case m.aeKick <- url:
				default: // the loop is far behind; the tick repairs it
				}
			},
		})
	} else {
		m.replicas = 1
	}
	m.met = newMetrics(m)
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// Registry exposes the node's metric registry; NewHandler serves it at
// GET /metrics, and the metricscheck lint renders it to validate names.
func (m *Manager) Registry() *telemetry.Registry { return m.registry }

// NodeName is the identity spans carry: the advertised cluster URL, or
// "local" for a standalone service.
func (m *Manager) NodeName() string {
	if m.membership != nil {
		return m.membership.Self()
	}
	return "local"
}

// Workers is the shared pool size.
func (m *Manager) Workers() int { return m.workers }

// Close shuts the node down in dependency order: stop replication,
// anti-entropy and probing, cancel every job and stop the workers, then
// flush the durable cache tier — the -drain guarantee that every computed
// result is on disk before exit. Peers learn of the shutdown only from
// their failing probes, as they would of a crash.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.sched = sched.New[*Job]() // drop undispatched work; workers exit on closed
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.membership != nil {
		// Replication and anti-entropy use the membership; stop them first.
		m.auxStopOnce.Do(func() { close(m.auxStop) })
		m.auxWG.Wait()
		m.membership.Close()
	}
	for _, j := range jobs {
		j.cancel()
		j.markCancelled()
	}
	m.wg.Wait()
	// Cancelled jobs end their batches promptly; the last of them may still
	// adopt into the cache, so it closes after them.
	m.hopWG.Wait()
	m.cache.Close()
}

// SubmitOptions qualify one submission. The zero value is a fresh trace
// and the anonymous tenant.
type SubmitOptions struct {
	// TraceID binds the sweep's spans to an existing trace; empty means a
	// fresh one.
	TraceID string
	// Tenant is the admission principal (resolved by the HTTP layer from
	// the request's API key); empty means AnonymousTenant. An undeclared
	// name is rejected with ErrUnknownTenant.
	Tenant string
}

// Submit is the submission path: expand and fingerprint the grid with
// dynring.AdmitRows (axis form or explicit-list form — the latter is how
// cluster peers ship grid shares), admit it against the tenant's quotas (ErrQuotaExceeded — HTTP
// 429 — when over), register the job and queue it on the tenant's
// scheduler lane.
// Expansion, validation and fingerprint errors are reported here, before
// anything runs.
func (m *Manager) Submit(spec dynring.SweepSpec, opts SubmitOptions) (*Job, error) {
	scs, fps, err := dynring.AdmitRows(nil, nil, &spec, nil, false)
	if err != nil {
		return nil, err
	}
	return m.submit(admitted{scs, fps}, opts)
}

// submit is Submit for admitted rows: POST /v1/sweeps admits its body's
// rows while it holds the body, and submits them here.
func (m *Manager) submit(rows admitted, opts SubmitOptions) (*Job, error) {
	scenarios, fps := rows.scs, rows.fps
	traceID := opts.TraceID
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	tenantName := opts.Tenant
	if tenantName == "" {
		tenantName = AnonymousTenant
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	ts, ok := m.tenants[tenantName]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if err := m.admitLocked(ts, len(scenarios)); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	j := newJob(fmt.Sprintf("sw-%d", m.nextID), traceID, scenarios, fps, time.Now())
	j.Tenant = ts.cfg.Name
	if m.membership != nil {
		j.hops = newHops(m, j)
		m.cache.hold(fps...)
		j.onRow = func(i int) { m.cache.release(fps[i]) }
	}
	ts.admitted.Add(1)
	ts.running.Add(1)
	// onSettle runs under j.mu (never m.mu): atomics only.
	j.onSettle = func() {
		m.settled.Add(1)
		ts.running.Add(-1)
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.pruneLocked()
	if j.Total() == 0 {
		// Unreachable through Sweep expansion (empty axes collapse to the
		// base scenario), but an empty job must never enter the scheduler.
		j.state = StateDone
		m.settled.Add(1)
		ts.running.Add(-1)
	} else {
		m.sched.Enqueue(ts.cfg.Name, j, j.Total())
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	// Logged after unlocking: a slow log sink must not stall the
	// scheduler and every reader of the job table behind m.mu.
	m.log.Info("sweep submitted", "job", j.ID, "trace", traceID,
		"tenant", ts.cfg.Name, "scenarios", j.Total())
	return j, nil
}

// Trace snapshots a sweep's trace as the wire document, built from its
// job's rows: ok is false exactly when Job(id) is (never submitted, or
// evicted from the job history). Once the job settles, every row that
// settled on this node has its span.
func (m *Manager) Trace(id string) (dynring.SweepTrace, bool) {
	j, ok := m.Job(id)
	if !ok {
		return dynring.SweepTrace{}, false
	}
	return j.trace(m.NodeName()), true
}

// Job looks up a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a job: its unscheduled scenarios are dropped from the
// scheduler, in-flight runs abort through the job context, and pending
// rows settle with context.Canceled. Cancelling a settled job is a no-op.
// Returns false when the ID is unknown.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	m.sched.Remove(j)
	m.mu.Unlock()

	j.cancel()
	j.markCancelled()
	return true
}

// pruneLocked evicts the oldest settled jobs beyond the history bound, so
// the job table (grids + results) cannot grow without limit on a
// long-running service. Running jobs are always retained. The settled
// counter makes the common case (under the bound) a single atomic load;
// the eviction scan only runs when there is something to evict. Callers
// hold m.mu.
func (m *Manager) pruneLocked() {
	if m.settled.Load() <= int64(m.history) {
		return
	}
	keep := m.order[:0]
	for _, j := range m.order {
		if m.settled.Load() > int64(m.history) && j.Status().State != "running" {
			delete(m.jobs, j.ID)
			m.settled.Add(-1)
			continue
		}
		keep = append(keep, j)
	}
	// Zero the tail so evicted jobs are collectable.
	for i := len(keep); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = keep
}

// ClusterStatus snapshots this node's view of the cluster as the
// /v1/cluster wire document. A standalone node reports Enabled false with
// an empty peer list.
func (m *Manager) ClusterStatus() dynring.ClusterStatus {
	if m.membership == nil {
		return dynring.ClusterStatus{Peers: []dynring.PeerStatus{}}
	}
	snap := m.membership.Snapshot()
	peers := make([]dynring.PeerStatus, len(snap))
	for i, p := range snap {
		peers[i] = dynring.PeerStatus{
			URL:      p.URL,
			Self:     p.Self,
			State:    p.State.String(),
			Failures: p.Failures,
			LastSeen: p.LastSeen,
		}
	}
	return dynring.ClusterStatus{
		Enabled:  true,
		Self:     m.membership.Self(),
		VNodes:   cluster.DefaultVNodes,
		Replicas: m.replicas,
		Peers:    peers,
	}
}

// Stats snapshots the service counters.
func (m *Manager) Stats() dynring.ServiceStats {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	queue := []dynring.JobQueueStat{}
	for _, qs := range m.sched.Snapshot() {
		queue = append(queue, dynring.JobQueueStat{
			ID:      qs.Job.ID,
			Tenant:  qs.Tenant,
			Pending: qs.Pending,
		})
	}
	var tenants []dynring.TenantStat
	for _, ts := range m.tenantList {
		tenants = append(tenants, dynring.TenantStat{
			Name:            ts.cfg.Name,
			Weight:          ts.cfg.Weight,
			QueuedScenarios: m.sched.Backlog(ts.cfg.Name),
			RunningJobs:     ts.running.Load(),
			Admitted:        ts.admitted.Load(),
			Rejected:        ts.rejectedQueue.Load() + ts.rejectedJobs.Load(),
			ServedTasks:     ts.served.Load(),
		})
	}
	m.mu.Unlock()
	st := dynring.ServiceStats{
		Jobs:       len(jobs),
		Workers:    m.workers,
		Executions: m.executions.Load(),
		Proxied:    m.proxied.Load(),
		Cache:      m.cache.Stats(),
		HitRatio:   m.cache.HitRatio(),
		Disk:       m.cache.DiskStats(),
		Queue:      queue,
		Tenants:    tenants,
	}
	if m.membership != nil {
		cs := m.ClusterStatus()
		st.Cluster = &cs
	}
	for _, j := range jobs {
		if j.Status().State == "running" {
			st.ActiveJobs++
		}
	}
	return st
}

// work is one pool worker: pull the next task in round-robin order, run it,
// repeat until Close.
func (m *Manager) work() {
	for {
		t, ok := m.nextTask()
		if !ok {
			return
		}
		m.runTask(t)
	}
}

// nextTask blocks until a task is schedulable (or the manager closes) and
// claims it from the scheduler, crediting the serving tenant. All policy —
// tenant weights, fairness between a tenant's jobs — lives in sched; this is
// just the blocking shim between the worker pool and that pure structure.
func (m *Manager) nextTask() (task, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return task{}, false
		}
		if tk, ok := m.sched.Next(); ok {
			if ts, ok := m.tenants[tk.Job.Tenant]; ok {
				ts.served.Add(1)
			}
			return task{j: tk.Job, i: tk.Index}, true
		}
		m.cond.Wait()
	}
}

// runTask settles one scenario: standalone, through runLocal; in cluster
// mode, through the job's route walk (see hop.go), which serves a cached
// result, hands the row to a peer or runs it here. A row handed to a peer
// settles when its batch streams the row back; the worker waits for that
// only when the row is the first of its (job, target) outbox. Every settle
// stamps the row with its span on this node (a proxied row also keeps the
// owner's span from the hop response).
func (m *Manager) runTask(t task) {
	j, i := t.j, t.i
	start := time.Now()
	m.met.queueWait.Observe(start.Sub(j.created).Seconds())
	if err := j.ctx.Err(); err != nil {
		j.setRow(i, Row{Err: err, started: start})
		return
	}
	if j.hops == nil {
		m.runLocal(j, i, start)
		return
	}
	j.hops.route(i, start)
}

// runLocal settles row i of j through ExecuteLocal; start is when a worker
// picked the row up.
func (m *Manager) runLocal(j *Job, i int, start time.Time) {
	res, cached, err := m.ExecuteLocal(j.ctx, j.scenarios[i], j.fps[i])
	j.setRow(i, Row{Cached: cached, Result: res, Err: err, started: start})
}

// ExecuteLocal runs one scenario on this node — cache tiers first, then an
// actual engine run — deduplicating concurrent executions of the same
// fingerprint through the manager's rescache.Group. It is the execution
// primitive shared by the worker pool and the /v1/run handler; the handler
// calls it on its own goroutine precisely so proxy hops never occupy pool
// workers (two nodes whose pools were full of proxy hops to each other
// would deadlock).
//
// The returned bool reports the result was served without executing here:
// a cache hit, or a copy of a concurrent execution's result — handed over
// directly, so the dedupe holds even with the memory tier disabled. Only
// the executing call replicates the result. Failures are never cached:
// validation errors are caught at Submit, so what remains — cancellation,
// panic — must not poison later runs of the fingerprint.
func (m *Manager) ExecuteLocal(ctx context.Context, sc dynring.Scenario, fp string) (dynring.Result, bool, error) {
	res, shared, err := m.group.Do(ctx, fp, func() (dynring.Result, error) { return m.execute(ctx, sc) })
	if !shared && err == nil {
		// Push the completed envelope toward fp's other replicas; the
		// replication loop fans it out to each replica's disk tier through
		// that node's own async write queue.
		m.replicate(fp, res)
	}
	return res, shared, err
}

// execute performs one engine run with a pooled Runner, converting panics
// (an adversary parameter only checkable at run time, a buggy custom
// strategy) into errors so one bad scenario can never take down the daemon
// and every other client's job. A panicked Runner is abandoned to the GC
// rather than repooled.
func (m *Manager) execute(ctx context.Context, sc dynring.Scenario) (res dynring.Result, err error) {
	runner := m.runners.Get().(*dynring.Runner)
	start := time.Now()
	defer func() {
		m.met.runSeconds.Observe(time.Since(start).Seconds())
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario panicked: %v", r)
			return
		}
		// Read the stats before repooling: once Put, another worker may
		// check the Runner out and Run it concurrently.
		if err == nil {
			m.met.observeRun(runner.LastStats())
		}
		m.runners.Put(runner)
	}()
	m.executions.Add(1)
	return runner.Run(ctx, sc)
}
