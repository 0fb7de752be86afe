package clustertest

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"dynring/internal/service"
)

// Options shape one in-process cluster. The zero value of every field has
// a sensible test default; only Nodes is required.
type Options struct {
	// Nodes is the cluster size (required, >= 1).
	Nodes int
	// Replicas is the replica-set size k passed to every node; 0 or 1
	// means unreplicated single-owner placement.
	Replicas int
	// Workers is the per-node worker pool (default 2).
	Workers int
	// CacheSize is the per-node memory tier bound (default 256 entries).
	CacheSize int
	// Disk gives every node a durable -data tier under t.TempDir() —
	// required for replication and anti-entropy tests.
	Disk bool
	// ProbeInterval and ProbeTimeout tune membership probing (defaults
	// 25ms and 5s: fast convergence, but no flapping under -race load).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// AntiEntropyInterval paces background reconciliation (default leaves
	// the service default; tests usually drive AntiEntropyNow directly).
	AntiEntropyInterval time.Duration
	// Seed seeds the fault plan when Plan is nil.
	Seed int64
	// Plan optionally supplies a pre-scripted fault plan (for KillAt
	// schedules that must be laid down before boot traffic starts).
	Plan *FaultPlan
	// ProxyTimeout bounds every node's outbound replica RPCs (0 leaves
	// the service's 10s default). Gray-failure tests lower it so a slowed
	// node trips timeouts in test time.
	ProxyTimeout time.Duration
	// Tenants installs the same admission config on every node (nil = the
	// open anonymous default).
	Tenants []service.TenantConfig
}

// Cluster is a running in-process cluster and the fault plan every node's
// transport consults.
type Cluster struct {
	// Plan injects faults into all cluster and client traffic.
	Plan  *FaultPlan
	t     *testing.T
	opts  Options
	urls  []string
	nodes []*Node
}

// Node is one cluster member: a full service.Manager behind a real
// loopback listener, so probes, proxy hops, replication pushes, and
// anti-entropy fetches travel the actual HTTP stack (through the plan's
// transport).
type Node struct {
	// Manager is the node's service manager — counters, ClusterStatus,
	// AntiEntropyNow, and DurableKeys stay readable even after Crash.
	Manager *service.Manager
	// URL is the node's advertised base URL.
	URL string
	// DataDir roots the node's durable tier ("" without Options.Disk).
	DataDir string
	srv     *http.Server
	crashed bool // crashed or stopped: not serving
}

// Start boots opts.Nodes members on loopback listeners, each seeded with
// the full peer list and the plan's transport, and waits until every node
// sees every other alive. Cleanup is registered on t.
func Start(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Nodes < 1 {
		t.Fatal("clustertest: Options.Nodes must be >= 1")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 256
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 25 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 5 * time.Second
	}
	plan := opts.Plan
	if plan == nil {
		plan = NewFaultPlan(opts.Seed)
	}
	lns := make([]net.Listener, opts.Nodes)
	urls := make([]string, opts.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	c := &Cluster{Plan: plan, t: t, opts: opts, urls: urls, nodes: make([]*Node, opts.Nodes)}
	for i, ln := range lns {
		dir := ""
		if opts.Disk {
			dir = t.TempDir()
		}
		c.boot(i, ln, dir)
	}
	c.WaitAlive()
	return c
}

// boot starts member i on ln: a fresh Manager over dataDir ("" for none)
// with the full member list, served on ln until cleanup.
func (c *Cluster) boot(i int, ln net.Listener, dataDir string) {
	t, opts := c.t, c.opts
	m, err := service.New(service.Options{
		Workers: opts.Workers, CacheSize: opts.CacheSize, Tenants: opts.Tenants, DiskDir: dataDir,
		Cluster: service.ClusterOptions{
			Self:                c.urls[i],
			Peers:               c.urls,
			ProbeInterval:       opts.ProbeInterval,
			ProbeTimeout:        opts.ProbeTimeout,
			Replicas:            opts.Replicas,
			Transport:           c.Plan.Transport(c.urls[i]),
			AntiEntropyInterval: opts.AntiEntropyInterval,
			ProxyTimeout:        opts.ProxyTimeout,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewHandler(m)}
	go srv.Serve(ln)
	c.nodes[i] = &Node{Manager: m, URL: c.urls[i], DataDir: dataDir, srv: srv}
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
}

// Node returns member i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Size returns the cluster's member count, crashed nodes included.
func (c *Cluster) Size() int { return len(c.nodes) }

// Crash simulates SIGKILL of node i: its listener closes (in-flight
// connections included) and the plan fails all traffic to or from it. The
// Manager is deliberately left running so the test can still read its
// in-process counters — a real dead process would simply report nothing.
func (c *Cluster) Crash(i int) {
	c.t.Helper()
	n := c.nodes[i]
	c.Plan.Kill(n.URL)
	n.srv.Close()
	n.crashed = true
}

// Stop shuts node i down gracefully, as SIGTERM does: its Manager closes
// and its listener with it. Peers learn of it only from failing probes.
// Like Crash, it leaves the Manager readable.
func (c *Cluster) Stop(i int) {
	c.t.Helper()
	n := c.nodes[i]
	n.Manager.Close()
	n.srv.Close()
	n.crashed = true
}

// Restart boots a fresh Manager for crashed or stopped node i on its old
// address and -data directory, lifting any Kill of it in the plan. It does
// not wait for peers to see the node alive. From then on TotalExecutions
// counts the fresh Manager's executions, not the old one's.
func (c *Cluster) Restart(i int) {
	c.t.Helper()
	n := c.nodes[i]
	n.srv.Close()
	n.Manager.Close()
	ln, err := net.Listen("tcp", strings.TrimPrefix(n.URL, "http://"))
	if err != nil {
		c.t.Fatal(err)
	}
	c.Plan.Revive(n.URL)
	c.boot(i, ln, n.DataDir)
}

// WaitAlive blocks until every non-crashed node sees every other
// non-crashed node alive, failing the test after 10s.
func (c *Cluster) WaitAlive() {
	c.t.Helper()
	want := 0
	for _, n := range c.nodes {
		if !n.crashed {
			want++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.nodes {
		if n.crashed {
			continue
		}
		for {
			alive := 0
			for _, p := range n.Manager.ClusterStatus().Peers {
				if p.State == "alive" && !c.crashedURL(p.URL) {
					alive++
				}
			}
			if alive == want {
				break
			}
			if time.Now().After(deadline) {
				c.t.Fatalf("clustertest: node %s never saw %d peers alive", n.URL, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// WaitPeerState blocks until node viewer reports peer in one of the given
// wire states ("alive", "suspect", "dead"), failing after 10s.
func (c *Cluster) WaitPeerState(viewer int, peer string, states ...string) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, p := range c.nodes[viewer].Manager.ClusterStatus().Peers {
			if p.URL != peer {
				continue
			}
			for _, s := range states {
				if p.State == s {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("clustertest: node %d never saw %s reach %v", viewer, peer, states)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TotalExecutions sums every node's engine-execution counter — the
// observable form of the cluster-wide exactly-once property. Crashed
// nodes' managers still count: their in-process totals are what a real
// crashed process would have flushed to metrics before dying.
func (c *Cluster) TotalExecutions() uint64 {
	var sum uint64
	for _, n := range c.nodes {
		sum += n.Manager.Stats().Executions
	}
	return sum
}

// WaitDurable blocks until node i's durable tier indexes at least want
// fingerprints (replication and the async disk writer have caught up),
// failing the test after 10s.
func (c *Cluster) WaitDurable(i, want int) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(c.nodes[i].Manager.DurableKeys()) < want {
		if time.Now().After(deadline) {
			c.t.Fatalf("clustertest: node %d durable tier stuck at %d/%d entries",
				i, len(c.nodes[i].Manager.DurableKeys()), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// EnvelopeFile returns the path of fp's envelope in a node's DataDir,
// mirroring the durable tier's naming rule for safe keys (fingerprints are
// fixed-length hex, so they map to "<fp>.json" directly).
func EnvelopeFile(dataDir, fp string) string {
	return fmt.Sprintf("%s/%s.json", dataDir, fp)
}

func (c *Cluster) crashedURL(url string) bool {
	for _, n := range c.nodes {
		if n.URL == url {
			return n.crashed
		}
	}
	return false
}
