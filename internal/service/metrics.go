package service

import (
	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/telemetry"
)

// metrics holds the Manager's write-side instruments. Everything the code
// already counts for /statsz (executions, cache hits, peer states) is
// exposed through CounterFunc/GaugeFunc callbacks over those same atomics —
// one source of truth, no double accounting; only genuinely new
// measurements (latency distributions, fallbacks, engine round accounting)
// get dedicated instruments.
type metrics struct {
	// queueWait is submit→dispatch per scenario; runSeconds is one engine
	// execution (cache hits and proxy hops excluded).
	queueWait  *telemetry.Histogram
	runSeconds *telemetry.Histogram

	// proxyRTT times successful proxy batches and hopRows counts their
	// rows; proxyFallbacks counts rows that ran locally after every
	// routable target failed. Nil/unregistered when standalone.
	proxyRTT       *telemetry.Histogram
	hopRows        *telemetry.Histogram
	proxyFallbacks *telemetry.Counter

	// Replication pushes, registered only on a replicated cluster node:
	// envelopes this node sent to, skipped for, and adopted from the other
	// members of their replica sets; the round trip of each successful
	// push, and failed pushes. Every series is resolved here, so a push
	// only adds to atomics.
	replSent, replSkipped, replAdopted *telemetry.Counter
	replPushRTT                        *telemetry.Histogram
	replPushFailures                   *telemetry.Counter

	// Engine accounting, accumulated from Runner.LastStats after each
	// successful execution: the leap fast path's win as cluster-visible
	// counters (rate(rounds_leapt)/rate(rounds_stepped+rounds_leapt) is the
	// fleet-wide leap ratio).
	engineRoundsStepped *telemetry.Counter
	engineRoundsLeapt   *telemetry.Counter
	engineLeaps         *telemetry.Counter
	engineLeapDisq      *telemetry.Counter
	engineCycles        *telemetry.Counter
}

// hopRowBuckets are the dynring_cluster_hop_rows bounds: powers of two up
// to the rows a maxSpecBytes batch can carry.
var hopRowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// observeRun folds one successful execution's engine stats into the
// counters.
func (mt *metrics) observeRun(st dynring.RunStats) {
	mt.engineRoundsStepped.Add(uint64(st.RoundsStepped))
	mt.engineRoundsLeapt.Add(uint64(st.RoundsLeapt))
	mt.engineLeaps.Add(uint64(st.Leaps))
	mt.engineLeapDisq.Add(uint64(st.LeapProbesDisqualified))
	mt.engineCycles.Add(uint64(st.CycleDetections))
}

// newMetrics registers the node's full metric catalogue on m.registry.
// Families whose subsystem is absent (disk tier, cluster) are not
// registered at all, so a standalone /metrics page carries no dead series.
// Called once from newManager, after the cache and membership exist.
func newMetrics(m *Manager) *metrics {
	r := m.registry
	mt := &metrics{}

	// --- service: the job manager and worker pool ---
	r.CounterFunc("dynring_service_executions_total",
		"Scenarios executed by the engine on this node (cache hits and proxied scenarios excluded). Summed across a cluster this is the cluster-wide execution count.",
		func() float64 { return float64(m.executions.Load()) })
	for _, state := range []string{"running", "done", "cancelled"} {
		r.GaugeFunc("dynring_service_jobs",
			"Jobs currently retained in the job table, by state.",
			m.jobStateCount(state), telemetry.Label{Name: "state", Value: state})
	}
	r.GaugeFunc("dynring_service_queue_depth",
		"Scenarios accepted but not yet dispatched to a worker, across all jobs and tenants.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.sched.Len())
		})
	r.GaugeFunc("dynring_service_workers",
		"Shared worker pool size.",
		func() float64 { return float64(m.workers) })
	mt.queueWait = r.Histogram("dynring_service_queue_wait_seconds",
		"Time a scenario spent queued between job submission and dispatch to a worker.", nil)
	mt.runSeconds = r.Histogram("dynring_service_run_seconds",
		"Wall time of one engine execution (excludes cache hits and proxy hops).", nil)

	// --- admission: per-tenant QoS accounting ---
	// Registered only when tenants are configured, so a default node's
	// /metrics page is unchanged. Tenant names are constant labels: the
	// tenant set is fixed at boot, which keeps the registry's
	// bounded-cardinality guarantee.
	for _, ts := range m.tenantList {
		ts := ts
		name := telemetry.Label{Name: "tenant", Value: ts.cfg.Name}
		r.CounterFunc("dynring_admission_admitted_total",
			"Sweeps admitted past quota checks, by tenant.",
			func() float64 { return float64(ts.admitted.Load()) }, name)
		r.CounterFunc("dynring_admission_rejected_total",
			"Sweeps rejected with 429, by tenant and exceeded quota.",
			func() float64 { return float64(ts.rejectedQueue.Load()) },
			name, telemetry.Label{Name: "quota", Value: "queued_scenarios"})
		r.CounterFunc("dynring_admission_rejected_total",
			"Sweeps rejected with 429, by tenant and exceeded quota.",
			func() float64 { return float64(ts.rejectedJobs.Load()) },
			name, telemetry.Label{Name: "quota", Value: "concurrent_jobs"})
		r.CounterFunc("dynring_admission_served_total",
			"Scenario tasks dispatched to workers, by tenant — the realized WDRR share.",
			func() float64 { return float64(ts.served.Load()) }, name)
		r.CounterFunc("dynring_admission_run_requests_total",
			"Proxied POST /v1/run executions accounted to this tenant by the owning node.",
			func() float64 { return float64(ts.runRequests.Load()) }, name)
		r.GaugeFunc("dynring_admission_queued_scenarios",
			"Undispatched scenarios held in the tenant's scheduler lane.",
			func() float64 {
				m.mu.Lock()
				defer m.mu.Unlock()
				return float64(m.sched.Backlog(ts.cfg.Name))
			}, name)
		r.GaugeFunc("dynring_admission_running_jobs",
			"Admitted, unsettled jobs, by tenant (what MaxConcurrent bounds).",
			func() float64 { return float64(ts.running.Load()) }, name)
	}
	if len(m.tenantList) > 0 {
		r.CounterFunc("dynring_admission_unauthorized_total",
			"Work-creating requests rejected for a missing or unknown API key.",
			func() float64 { return float64(m.unauthorized.Load()) })
	}

	// --- cache: the tiered result store ---
	r.CounterFunc("dynring_cache_hits_total",
		"Result-cache hits, by tier.",
		func() float64 { return float64(m.cache.Stats().Hits) },
		telemetry.Label{Name: "tier", Value: "memory"})
	r.CounterFunc("dynring_cache_misses_total",
		"Result-cache misses, by tier. A memory miss that hits disk counts as both a memory miss and a disk hit.",
		func() float64 { return float64(m.cache.Stats().Misses) },
		telemetry.Label{Name: "tier", Value: "memory"})
	r.GaugeFunc("dynring_cache_entries",
		"Entries resident per cache tier.",
		func() float64 { return float64(m.cache.Stats().Size) },
		telemetry.Label{Name: "tier", Value: "memory"})
	if m.cache.DiskStats() != nil {
		diskStat := func(f func(dynring.DiskTierStats) float64) func() float64 {
			return func() float64 {
				if st := m.cache.DiskStats(); st != nil {
					return f(*st)
				}
				return 0
			}
		}
		r.CounterFunc("dynring_cache_hits_total",
			"Result-cache hits, by tier.",
			diskStat(func(st dynring.DiskTierStats) float64 { return float64(st.Hits) }),
			telemetry.Label{Name: "tier", Value: "disk"})
		r.CounterFunc("dynring_cache_misses_total",
			"Result-cache misses, by tier.",
			diskStat(func(st dynring.DiskTierStats) float64 { return float64(st.Misses) }),
			telemetry.Label{Name: "tier", Value: "disk"})
		r.GaugeFunc("dynring_cache_entries",
			"Entries resident per cache tier.",
			diskStat(func(st dynring.DiskTierStats) float64 { return float64(st.Entries) }),
			telemetry.Label{Name: "tier", Value: "disk"})
		r.CounterFunc("dynring_cache_promotions_total",
			"Disk-tier hits promoted back into the memory tier.",
			func() float64 { return float64(m.cache.Promotions()) })
		r.GaugeFunc("dynring_cache_write_queue_depth",
			"Durable-tier writes waiting on the asynchronous writer.",
			diskStat(func(st dynring.DiskTierStats) float64 { return float64(st.QueueDepth) }))
	}

	// --- cluster: membership and the proxy path ---
	if m.membership != nil {
		for _, state := range []cluster.State{cluster.StateAlive, cluster.StateSuspect, cluster.StateDead} {
			state := state
			r.GaugeFunc("dynring_cluster_peers",
				"Cluster members by probe-derived health state, as seen by this node (self counts as alive).",
				func() float64 {
					n := 0
					for _, p := range m.membership.Snapshot() {
						if p.State == state {
							n++
						}
					}
					return float64(n)
				}, telemetry.Label{Name: "state", Value: state.String()})
		}
		r.CounterFunc("dynring_cluster_proxied_total",
			"Scenarios this node proxied to their owning peer instead of executing.",
			func() float64 { return float64(m.proxied.Load()) })
		r.CounterFunc("dynring_cluster_probe_failures_total",
			"Failed health probes (including out-of-band proxy-failure evidence).",
			func() float64 { return float64(m.membership.ProbeFailures()) })
		mt.proxyFallbacks = r.Counter("dynring_cluster_proxy_fallbacks_total",
			"Routed scenarios executed locally because every routable proxy target failed.")
		mt.proxyRTT = r.Histogram("dynring_cluster_proxy_rtt_seconds",
			"Round-trip time of successful POST /v1/run proxy batches, from send to the last streamed row.", nil)
		mt.hopRows = r.Histogram("dynring_cluster_hop_rows",
			"Rows carried per successful POST /v1/run proxy batch.", hopRowBuckets)
		r.CounterFunc("dynring_cluster_replica_hits_total",
			"Scenarios served by a non-owner replica: failover past an unroutable or failed owner.",
			func() float64 { return float64(m.replicaHits.Load()) })
		r.CounterFunc("dynring_cluster_antientropy_repairs_total",
			"Envelopes this node pulled from peers onto its own disk tier by anti-entropy (absent or corrupt local copies).",
			func() float64 { return float64(m.aeRepairs.Load()) })
	}
	if m.Replicated() {
		envelopes := func(dir string) *telemetry.Counter {
			return r.Counter("dynring_cluster_replication_envelopes_total",
				"Replication envelopes by direction: sent to a replica (push acknowledged), skipped for an unroutable replica (left to its anti-entropy pull), adopted from a peer's push.",
				telemetry.Label{Name: "dir", Value: dir})
		}
		mt.replSent, mt.replSkipped, mt.replAdopted = envelopes("sent"), envelopes("skipped"), envelopes("adopted")
		mt.replPushRTT = r.Histogram("dynring_cluster_replication_push_seconds",
			"Round-trip time of successful POST /v1/replicate pushes.", nil)
		mt.replPushFailures = r.Counter("dynring_cluster_replication_push_failures_total",
			"POST /v1/replicate pushes that failed (transport error, timeout or non-2xx answer).")
		r.GaugeFunc("dynring_cluster_replication_queue_depth",
			"Completed envelopes waiting for the replication loop to push them.",
			func() float64 { return float64(len(m.replq)) })
	}

	// --- engine: per-run execution accounting ---
	mt.engineRoundsStepped = r.Counter("dynring_engine_rounds_stepped_total",
		"Simulation rounds executed one by one.")
	mt.engineRoundsLeapt = r.Counter("dynring_engine_rounds_leapt_total",
		"Simulation rounds skipped by the quiescence-leap fast path.")
	mt.engineLeaps = r.Counter("dynring_engine_leaps_total",
		"Committed quiescence leaps.")
	mt.engineLeapDisq = r.Counter("dynring_engine_leap_probes_disqualified_total",
		"Quiescent rounds whose leap probe was invalidated by a fairness- or ET-forced activation.")
	mt.engineCycles = r.Counter("dynring_engine_cycle_detections_total",
		"Configuration-cycle certificates issued.")
	return mt
}

// jobStateCount returns a render-time callback counting retained jobs in
// one wire state.
func (m *Manager) jobStateCount(state string) func() float64 {
	return func() float64 {
		m.mu.Lock()
		jobs := make([]*Job, 0, len(m.jobs))
		for _, j := range m.jobs {
			jobs = append(jobs, j)
		}
		m.mu.Unlock()
		n := 0
		for _, j := range jobs {
			if j.Status().State == state {
				n++
			}
		}
		return float64(n)
	}
}
