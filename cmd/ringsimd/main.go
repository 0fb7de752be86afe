// Command ringsimd is the long-running sweep service: it accepts scenario
// grids over HTTP, schedules them on one shared worker pool, and serves
// results from a content-addressed cache keyed by Scenario.Fingerprint, so
// repeated or overlapping grids skip recomputation entirely. Scheduling is
// weighted deficit round-robin across tenants (see -tenants) and fair
// round-robin between a tenant's jobs; without -tenants everything runs as
// one anonymous tenant, which is plain fair round-robin between jobs. With -data the cache gains
// a durable disk tier that survives restarts; with -self/-peers the node
// is a member of a sharded cluster that routes each fingerprint to one
// owning node. -peers is the cluster's member list, the same on every node
// and including -self; the ring is that list, fixed for the process's
// lifetime, and health probes change only where rows are sent, never who
// owns them. Any node accepts a sweep and coordinates it: routing is
// decided here, on the server, never by clients, and the ring's vnode
// count is fixed so every node computes the same placement.
// With -replicas k (and -data) each fingerprint's envelope is further
// replicated to the owner's next k-1 ring successors: completed results
// are pushed to every replica's disk tier, routing falls over to replicas
// when the owner dies, and anti-entropy lets each node repair its own
// -data directory: it pulls the envelopes it should hold but cannot read
// from each peer when it first sees that peer alive, when the peer comes
// back from dead, and every -antientropy-interval.
//
// Gray failures — peers that stay alive but turn slow — are handled by
// one knob. -proxy-timeout is how long this node waits on a slow peer:
// it is the one bound on every outbound replica RPC, and a proxy batch
// that streams nothing for that long fails its rows over to the next
// replica. Every health probe is
// bounded by -probe-interval, capped at -proxy-timeout, so a peer that
// answers too slowly fails its probes: it reads "suspect" and then "dead"
// in /v1/cluster, routing moves to the next replica, and its first timely
// probe makes it routable again.
//
// Usage:
//
//	ringsimd -addr :8080 -workers 8 -cache 4096
//	ringsimd -addr :8080 -data /var/lib/ringsimd        # durable result tier
//	ringsimd -addr :8080 -tenants 'alice:sk-alice:3:500:8,bob:sk-bob:1'
//	ringsimd -addr :8080 -tenants @/etc/ringsimd/tenants.json
//	ringsimd -addr :8080 -pprof 127.0.0.1:6060          # profiling endpoint on a private port
//	ringsimd -addr :8081 -self http://127.0.0.1:8081 \
//	         -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//	ringsimd -addr :8081 -self http://127.0.0.1:8081 -peers ... \
//	         -data /var/lib/ringsimd -replicas 3         # 3-way replicated tiers
//
// -tenants declares admission principals as
// name:key:weight[:maxQueued[:maxConcurrent]] entries (or @file naming a
// JSON []TenantConfig). With tenants configured, POST /v1/sweeps and
// POST /v1/run require a tenant's API key (Authorization: Bearer, or
// X-Dynring-Tenant) and reject over-quota submissions with 429 plus a
// Retry-After hint; per-tenant dynring_admission_* metric families appear
// on /metrics and a tenants section in /statsz.
//
// API (see internal/service and the dynring.Client type):
//
//	POST   /v1/sweeps               submit a SweepSpec
//	GET    /v1/sweeps/{id}          job status
//	GET    /v1/sweeps/{id}/results  NDJSON results in grid order (?from=N resumes at grid index N)
//	DELETE /v1/sweeps/{id}          cancel
//	POST   /v1/run                  run one scenario synchronously (the cluster proxy hop)
//	GET    /v1/cluster              this node's cluster view
//	POST   /v1/replicate            accept one replicated envelope (replicas > 1 only)
//	GET    /v1/antientropy/keys     durable-tier key listing (replicas > 1 only)
//	GET    /v1/antientropy/entry    one validated envelope (replicas > 1 only)
//	GET    /healthz, /statsz        liveness and counters
//
// SIGINT/SIGTERM trigger a graceful shutdown: jobs are cancelled, streams
// settle, queued durable-tier writes are flushed to disk, and in-flight
// responses drain within -drain. Peers see the node go suspect and then
// dead through their probes, exactly as after a crash, and alive again at
// their first probe after it restarts.
//
// Observability: GET /metrics serves the node's Prometheus text exposition
// (see docs/ARCHITECTURE.md for the metric catalogue), operational logs are
// structured log/slog records on stderr (-log-level, -log-format json|text),
// and every sweep carries a trace ID queryable at /v1/sweeps/{id}/trace.
//
// -pprof addr (off by default) serves Go's net/http/pprof profiling
// handlers on a dedicated listener, kept off the API address on purpose:
// bind it to loopback or an operations network, never to the public API
// surface. -profile-fraction N additionally enables mutex and blocking
// profiles (sampling 1/N of contention events) on that listener; it
// requires -pprof, and N=0 keeps both profiles off (their bookkeeping is
// not free).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"dynring/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringsimd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("ringsimd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "shared worker pool size (0 = NumCPU)")
		cacheSize   = fs.Int("cache", 4096, "result cache capacity in entries (0 disables)")
		dataDir     = fs.String("data", "", "durable result-tier directory (empty disables; survives restarts)")
		history     = fs.Int("job-history", 0, "settled jobs retained for queries (0 = default 1024)")
		tenants     = fs.String("tenants", "", "tenant declarations: name:key:weight[:maxQueued[:maxConcurrent]],... or @file.json (empty = single anonymous tenant)")
		self        = fs.String("self", "", "this node's advertised base URL (enables cluster mode)")
		peers       = fs.String("peers", "", "comma-separated base URLs of every cluster member, -self included (same list on every node)")
		probeIvl    = fs.Duration("probe-interval", 0, "peer health-probe period (0 = default 1s)")
		replicas    = fs.Int("replicas", 0, "replica-set size k: each fingerprint's envelope lands on its owner plus the next k-1 ring successors (0 or 1 = unreplicated; must match cluster-wide)")
		aeInterval  = fs.Duration("antientropy-interval", 0, "period of the pass that pulls missing or corrupt replica envelopes from alive peers into this node's -data tier (0 = default 30s; needs -replicas > 1 and -data)")
		proxyTO     = fs.Duration("proxy-timeout", 0, "per-hop bound on outbound replica RPCs: proxy runs, replication pushes, anti-entropy fetches (0 = default 10s)")
		drain       = fs.Duration("drain", 5*time.Second, "graceful shutdown timeout")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
		profileFrac = fs.Int("profile-fraction", 0, "sample 1/N of mutex-contention and blocking events for the -pprof mutex/block profiles (0 disables; requires -pprof)")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat   = fs.String("log-format", "text", "log record format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers != "" && *self == "" {
		return fmt.Errorf("-peers requires -self (the URL peers reach this node at)")
	}
	if *profileFrac < 0 {
		return fmt.Errorf("-profile-fraction must be >= 0")
	}
	if *profileFrac > 0 && *pprofAddr == "" {
		return fmt.Errorf("-profile-fraction requires -pprof (the profiles are served there)")
	}
	selfURL := strings.TrimRight(*self, "/")
	var members []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			members = append(members, strings.TrimRight(p, "/"))
		}
	}
	if len(members) > 0 && !slices.Contains(members, selfURL) {
		return fmt.Errorf("-peers must include -self %s: every node is started with the same member list", selfURL)
	}
	tenantCfg, err := service.ParseTenants(*tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}

	logger, err := newLogger(out, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	// Both listeners open before anything else starts, so a bad -addr or
	// -pprof is reported before a probe, a worker or the -data directory.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var pln net.Listener
	if *pprofAddr != "" {
		if pln, err = net.Listen("tcp", *pprofAddr); err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
	}
	mgr, err := service.New(service.Options{
		Workers:    *workers,
		CacheSize:  *cacheSize,
		DiskDir:    *dataDir,
		JobHistory: *history,
		Tenants:    tenantCfg,
		Cluster: service.ClusterOptions{
			Self:                selfURL,
			Peers:               members,
			ProbeInterval:       *probeIvl,
			Replicas:            *replicas,
			AntiEntropyInterval: *aeInterval,
			ProxyTimeout:        *proxyTO,
		},
		Logger: logger,
	})
	if err != nil {
		ln.Close()
		if pln != nil {
			pln.Close()
		}
		return err
	}
	if *profileFrac > 0 {
		// Both profiles sample 1/N of their events; they stay zero-cost at
		// N=0, which is why this is opt-in rather than always on.
		runtime.SetMutexProfileFraction(*profileFrac)
		runtime.SetBlockProfileRate(*profileFrac)
	}
	fmt.Fprintf(out, "ringsimd listening on http://%s (workers=%d cache=%d)\n",
		ln.Addr(), mgr.Workers(), *cacheSize)
	if *self != "" {
		fmt.Fprintf(out, "ringsimd cluster mode: self=%s peers=%d\n", selfURL, len(members))
	}
	if len(tenantCfg) > 0 {
		fmt.Fprintf(out, "ringsimd admission: %d tenants\n", len(tenantCfg))
	}

	var pprofSrv *http.Server
	if pln != nil {
		// A dedicated mux, never http.DefaultServeMux: the profiling
		// surface must not leak onto the API listener or pick up handlers
		// other packages register globally.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: pmux}
		fmt.Fprintf(out, "ringsimd pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = pprofSrv.Serve(pln) }()
	}

	srv := &http.Server{Handler: service.NewHandler(mgr)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		mgr.Close()
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		return err
	case <-ctx.Done():
	}

	// Cancel jobs first so streaming handlers unblock, then drain HTTP.
	mgr.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(shutdownCtx)
	}
	err = srv.Shutdown(shutdownCtx)
	fmt.Fprintln(out, "ringsimd: shut down")
	return err
}

// newLogger builds the process logger from the -log-level and -log-format
// flags. Records go to the same writer as the startup banner; the "ringsimd
// listening on ..." and "shut down" lines stay plain prints so scripts that
// watch for them are format-independent.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}
