// Command perfbench is the sweep service's benchmark. It boots ringsimd
// nodes in-process (service.New behind service.NewHandler on loopback
// listeners), drives them from the same process with dynring.Client, checks
// every answer, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solo-cold --seed 1 --seconds 22 --trace 0
//
// run.sh builds the module under perfbench/ (which uses the repository's
// packages through a replace directive) and runs it. --seed generates the
// inputs: every row of every sweep gets a seed derived from it, so the same
// seed gives the same sweeps and another seed new fingerprints. --seconds
// fixes the amount of work: the timed phase submits seconds ×
// sweeps_per_second sweeps of the workload's shape, which takes about that
// long on a 2-vCPU x86-64 VM, in equal blocks of 200 sweeps. The process
// runs with GOMAXPROCS 2. --trace 0 prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics of a
// separately traced run.
//
// # Workloads
//
// The load is a closed loop: two clients in the process, each streaming
// every row of its sweep before submitting the next (Client.RunSweep and
// ringsim -sweep -server users wait for their rows). All sweeps go to
// node-a. Within a workload every sweep has the same composition and only
// the row seeds differ.
//
//   - solo-cold: one node, 2 workers, memory tier of 4096 entries, fresh
//     fingerprints on every sweep. Each 8-row sweep mixes stepped horizon
//     runs (UnconsciousExploration, ETUnconscious under random(p=0.5),
//     1.8-3.1 ms, 5.6k-7.2k rounds) with leapt ones (PTBoundWithChirality,
//     ETUnconscious under capped(r=2), microseconds for 5.6k-239k rounds).
//     The engine is about 95% of the CPU.
//   - solo-hot: one node, 2 workers, memory tier of 4096 entries. Sixteen
//     48-row grids of cheap terminating algorithms are primed in set-up and
//     re-submitted round-robin, so every timed row is a memory-tier hit and
//     the engine does nothing (asserted). Every row's cost is service
//     overhead: decode, expand and fingerprint, admission, scheduler, cache
//     read and copy, NDJSON encode, client decode.
//   - trio-replicated: nodes a, b, c with Replicas 3 and memory tiers;
//     a has 2 workers, b and c 1 each (their pools stay idle: only a
//     receives sweeps, and /v1/run runs on handler goroutines). Each 24-row
//     sweep holds fresh rows of cheap terminating algorithms, so about 2/3
//     of the rows take a POST /v1/run hop and every executed row is pushed
//     to the 2 other replicas. The engine is a few percent of the CPU.
//
// No workload has a durable tier. Its envelope files go to the host's
// disk, and on a VM whose virtual disk is shared that write latency moved
// trio-replicated's throughput and CPU per row by 40-65% between runs. The
// traced run still exercises service.NewTieredCache with a durable tier
// off the clock (cache.put_us_p50 and cache.get_us_p50).
//
// # Metrics
//
// End-to-end, untraced, per workload: sweep_p50_ms (submit to last row),
// sweep_tail_ms (the highest percentile with at least ten sweeps beyond it,
// printed as sweep_tail_percentile), first_row_p50_ms, rows_per_s,
// cpu_us_per_row (process user+sys), alloc_bytes_per_row
// (MemStats.TotalAlloc), rss_peak_mb (the largest VmRSS read at the end
// of a timed block, once drained), setup_s and ok_frac (rows
// correct over rows attempted; 1 minus the failed fraction, so the metric is
// never 0). Throughput, CPU per row and the latency percentiles are taken
// per 200-sweep block (so the tail is p95 on every workload) and combined
// by their interquartile mean over the blocks; allocation covers the whole
// timed phase. The line before the result prints every metric's sample
// count and each block's figures.
//
// Per layer, from the traced run. Each line names the layer, its metrics,
// the end-to-end metrics they should move, and where:
//
//	engine      engine.us_per_scenario, engine.rounds_stepped_per_scenario,
//	            engine.rounds_leapt_per_scenario, engine.executions_per_fp
//	            (exactly 1), engine.executions.node-{a,b,c}
//	            -> rows_per_s, sweep_p50_ms, cpu_us_per_row on solo-cold;
//	               near zero on trio-replicated, idle in solo-hot's timed phase
//	admission   admission.post_us_p50, admission.expand_fp_us_per_row
//	            -> first_row_p50_ms, sweep_p50_ms on solo-hot
//	sched       sched.queue_wait_ms_p50, sched.queue_wait_ms_p90
//	            (Manager.Trace spans, Started - Enqueued)
//	            -> first_row_p50_ms, sweep_tail_ms on solo-cold; small on solo-hot
//	cache       cache.mem_hit_ratio, cache.get_us_p50, cache.put_us_p50,
//	            cache.disk_writes_per_row
//	            -> reads: rows_per_s, alloc_bytes_per_row on solo-hot;
//	               writes: solo-cold and trio-replicated
//	route       route.local_frac, route.proxied_frac, route.steals,
//	            route.hedges, route.fallbacks (/metrics counters over the
//	            timed phase; exact repeats, placement being deterministic)
//	            -> explains trio-replicated
//	hop         hop.run_per_row, hop.run_rtt_us_p50, hop.run_rtt_us_p99,
//	            hop.run_wire_us_p50 (RTT minus the owner's /v1/run handler
//	            time), hop.bytes_per_row, hop.probes
//	            -> rows_per_s, cpu_us_per_row, sweep_p50_ms on trio-replicated;
//	               absent on the solo workloads
//	replication replication.pushes_per_row, replication.bytes_per_push,
//	            replication.drain_ms, replication.ae_passes
//	            -> cpu_us_per_row, alloc_bytes_per_row on trio-replicated
//	stream      stream.encode_us_per_row, stream.bytes_per_row
//	            -> rows_per_s, alloc_bytes_per_row, sweep_p50_ms on solo-hot
//	client      client.submit_us_p50, client.stream_ms_p50, client.retries
//	            -> sweep_p50_ms, first_row_p50_ms on solo-hot
//
// trace_overhead_frac is 1 minus the traced run's rows_per_s over the
// untraced rows_per_s of the same invocation. Layers a workload leaves
// idle are listed as idle_layers in the report line, and their metrics
// read 0.
//
// The traced run observes the service from outside: a middleware around
// each node's handler, a RoundTripper around each transport, and spans
// around each client call. Spans carry name, start, end, parent and the
// sweep's X-Dynring-Trace ID, stay in memory, and are written to
// spans-<workload>.ndjson (one span per line) in the work directory when
// the run ends.
// Off the clock it also replays the sampled rows through Runner.Run
// (engine), SweepSpec.ScenarioList plus Scenario.Fingerprint (admission),
// a fresh service.NewTieredCache (cache), and settled sweeps through the
// results handler (stream).
//
// # Output checks
//
// Every row is checked inline for an error, a missing result or a wrong
// fingerprint. Off the clock: the rows of a seeded sample of sweeps must
// equal a local Runner replay; the last sweep, re-streamed with ?from=0
// and ?from=N, must be byte-identical to the stream the client first
// received; cluster-wide executions must equal the distinct fingerprints
// submitted; and solo-hot's timed phase must execute nothing. A bad row
// counts against ok_frac; any failure makes the run exit non-zero.
//
// # Noise sources and the rules that remove them
//
// An earlier attempt at this benchmark ran for a fixed duration on random
// ports and was too noisy to gate on. Each source of run-to-run variation
// that came from the program or the harness is removed by one rule:
//
//   - Fixed duration let a faster run do more work and end with a bigger
//     cache, heap and disk tier. Rule: fixed work. Each run executes the
//     same seeded list of sweeps; allocation per row then repeats within
//     0.1%.
//   - Random loopback ports changed consistent-hash placement every run,
//     and with it proxied hops and per-node executions. Rule: stable node
//     identities. Nodes advertise http://node-a.bench and so on; one
//     transport, whose dialer maps each name to its listener, serves every
//     node's ClusterOptions.Transport and the clients' HTTPClient. Per-node
//     executions and proxied hops then repeat exactly.
//   - Clients rotating over coordinators with Replicas 3 let gossip timing
//     decide steals. Rule: one coordinator. Both clients submit to node-a,
//     so the steal count is zero by construction.
//   - Mixed sweeps put latency percentiles across two modes (cold and hot,
//     or tenant shares). Rule: homogeneous sweeps.
//   - Set-up dominated by process start jittered by tens of percent. Rule:
//     set-up does real work. It runs from before the first node boots to
//     the quiescent state the timed phase starts from: membership
//     converged, grids primed (solo-hot), a fixed warm-up list of the
//     workload's own shape run, and replication drained (every push for
//     every execution has landed). A run sets up nine times, tearing the
//     system down in between, and reports the median; only the last
//     set-up is timed afterwards.
//   - Asynchronous tails were cut off at a point that varied by run. Rule:
//     each timed block starts after a forced GC, and its CPU and allocation
//     windows close only after replication has drained; probes and
//     anti-entropy passes inside the window are counted.
//   - Heap, GC pacing and peak RSS carried over between runs. Rule: one
//     fresh process per run.
//   - Disk latency on a shared virtual disk moved throughput by half
//     between runs. Rule: no durable tier in the timed phase.
//   - Host noise remains. A fixed compute loop on both vCPUs of the
//     reference VM, timed per second for a minute, ranged 7.4k-9.2k
//     iterations per second, in episodes of 5-20 s. A short
//     benchmark-owned reference kernel timed around every block did not
//     track the workloads' speed, so nothing is calibrated. Rule: average
//     over as much of the run as possible, and let no stall dominate. Runs
//     are as long as the time budget for all runs allows; time metrics are
//     interquartile means over the run's 20 or more blocks (on the same
//     runs, medians over ten blocks spread up to twice as widely, and plain
//     means let a few stalled blocks widen the tail's run-to-run spread
//     from 10% to 16%); count metrics are exact.
//   - The VmHWM high-water mark caught how far one garbage-collection
//     cycle overshot its goal, which moved it by 7% between runs. Rule:
//     rss_peak_mb reads VmRSS at fixed points of work, the end of each
//     drained block.
package main
