package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dynring"
	"dynring/internal/service"
)

func main() {
	os.Exit(runMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// tiny shrinks the run to one set-up with 4 warm-up sweeps and 12 timed
	// sweeps; the self-tests use it.
	tiny bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line printed before the result: the workload's
// configuration, sample counts, exact counts and idle layers.
type report struct {
	Workload workload       `json:"workload"`
	Seed     int64          `json:"seed"`
	Sweeps   int            `json:"sweeps"`
	Rows     int            `json:"rows"`
	Distinct int            `json:"distinct_fingerprints"`
	Samples  map[string]int `json:"samples"`
	TailPct  float64        `json:"sweep_tail_percentile"`
	// SetupS lists every set-up's time; setup_s is their median.
	SetupS []float64 `json:"setup_s,omitempty"`
	// Blocks lists each timed block's figures, so a reader can see the
	// spread within a run.
	Blocks     []blockReport     `json:"blocks,omitempty"`
	NodeExecs  map[string]uint64 `json:"node_executions"`
	IdleLayers []string          `json:"idle_layers,omitempty"`
	SpansFile  string            `json:"spans_file,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// blockReport is one timed block in the report line.
type blockReport struct {
	RowsPerS    float64 `json:"rows_per_s"`
	CPUPerRow   float64 `json:"cpu_us_per_row"`
	SweepP50    float64 `json:"sweep_p50_ms"`
	SweepTail   float64 `json:"sweep_tail_ms"`
	FirstRowP50 float64 `json:"first_row_p50_ms"`
	RSS         float64 `json:"rss_mb"`
}

func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: solo-cold, solo-hot or trio-replicated")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same sweeps")
	fs.IntVar(&o.seconds, "seconds", 22, "run length; fixes the timed sweep count at seconds x the workload's sweeps_per_second")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for durable tiers and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(procs)
	res, rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res.Metrics == nil {
			return 1
		}
		rep.Error = err.Error()
	}
	line, _ := json.Marshal(rep)
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run performs one benchmark run. An error with a nil result.Metrics means
// nothing was measured; with metrics, an output check failed.
func run(ctx context.Context, o options) (result, report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return result{}, report{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return result{}, report{}, errors.New("--seconds must be at least 1")
	}
	n, nSetups := o.seconds*w.SweepsPerSecond, setups
	if o.tiny {
		n, nSetups, w.Warmup = 12, 1, 4
	}
	in, err := makeInputs(w, o.seed, n)
	if err != nil {
		return result{}, report{}, err
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, "run-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return result{}, report{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, report{}, err
	}
	defer os.RemoveAll(dir)

	rep := report{Workload: w, Seed: o.seed, Sweeps: n, Distinct: in.distinct, Samples: map[string]int{}}
	var setupTimes []float64
	var s *system
	for range nSetups {
		if s != nil {
			s.close()
			runtime.GC()
		}
		var d time.Duration
		if s, d, err = setUp(ctx, w, in, nil); err != nil {
			return result{}, rep, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	p, err := s.timed(ctx, in)
	if err != nil {
		s.close()
		return result{}, rep, err
	}
	var eng engineStats
	mismatches, cerr := s.check(ctx, in, p, &eng)
	s.close()
	rep.Rows = p.rows
	rep.NodeExecs = nodeExecs(s)
	res := result{Attempted: p.rows, Failed: p.bad + mismatches, Metrics: map[string]metric{}}
	res.Correct = cerr == nil && res.Failed == 0

	if !o.trace {
		endToEnd(&res, &rep, p, setupTimes)
		return res, rep, cerr
	}

	// Traced run: same workload and seed on a fresh system, observed by the
	// benchmark's wrappers; the untraced phase above is its baseline.
	runtime.GC()
	tr := &tracer{}
	ts, _, err := setUp(ctx, w, in, tr)
	if err != nil {
		return result{}, rep, err
	}
	tp, err := ts.timed(ctx, in)
	if err != nil {
		ts.close()
		return result{}, rep, err
	}
	eng = engineStats{}
	tmis, tcerr := ts.check(ctx, in, tp, &eng)
	layers, idle, lerr := perLayer(ts, in, tp, &eng, p.rowsPerS(), dir)
	ts.close()
	rep.NodeExecs, rep.IdleLayers = nodeExecs(ts), idle
	res.Failed += tp.bad + tmis
	res.Attempted += tp.rows
	res.Metrics = layers
	cerr = errors.Join(cerr, tcerr, lerr)
	res.Correct = cerr == nil && res.Failed == 0
	rep.SpansFile = filepath.Join(o.workdir, "spans-"+w.Name+".ndjson")
	if err := tr.write(rep.SpansFile); err != nil {
		cerr = errors.Join(cerr, err)
	}
	return res, rep, cerr
}

func nodeExecs(s *system) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range s.nodes {
		out[n.name] = n.mgr.Stats().Executions
	}
	return out
}

// endToEnd fills the untraced run's metrics. Throughput, CPU and latency
// are taken per block and combined by their interquartile mean over the
// blocks; allocation, a count of work, covers the whole timed phase.
func endToEnd(res *result, rep *report, p *phase, setupTimes []float64) {
	// Every block uses the tail percentile of the smallest block, so all
	// blocks report the same percentile.
	minSweeps := len(p.recs)
	for _, b := range p.blocks {
		minSweeps = min(minSweeps, len(b.recs))
	}
	tail := tailPercentile(minSweeps)
	lat := func(q float64, d func(r sweepRec) time.Duration) func(b block) float64 {
		return func(b block) float64 {
			var xs []float64
			for _, r := range b.recs {
				xs = append(xs, ms(d(r)))
			}
			return quantile(xs, q)
		}
	}
	sweepP50 := lat(0.5, func(r sweepRec) time.Duration { return r.latency })
	sweepTail := lat(tail/100, func(r sweepRec) time.Duration { return r.latency })
	firstRowP50 := lat(0.5, func(r sweepRec) time.Duration { return r.firstRow })
	set := func(name, unit string, v float64, samples int) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		rep.Samples[name] = samples
	}
	cpuPerRow := func(b block) float64 { return us(b.cpu) / float64(b.rows) }
	var alloc uint64
	var rss float64
	for _, b := range p.blocks {
		alloc += b.alloc
		rss = max(rss, b.rss)
	}
	sweeps, rows := len(p.recs), p.rows
	set("sweep_p50_ms", "ms", p.overBlocks(sweepP50), sweeps)
	set("sweep_tail_ms", "ms", p.overBlocks(sweepTail), sweeps)
	set("first_row_p50_ms", "ms", p.overBlocks(firstRowP50), sweeps)
	set("rows_per_s", "rows/s", p.rowsPerS(), rows)
	set("cpu_us_per_row", "us", p.overBlocks(cpuPerRow), rows)
	set("alloc_bytes_per_row", "B", float64(alloc)/float64(rows), rows)
	set("rss_peak_mb", "MB", rss, len(p.blocks))
	set("setup_s", "s", median(setupTimes), len(setupTimes))
	rep.SetupS = setupTimes
	set("ok_frac", "fraction", 1-float64(res.Failed)/float64(rows), rows)
	rep.TailPct = tail
	for _, b := range p.blocks {
		rep.Blocks = append(rep.Blocks, blockReport{
			RowsPerS: b.rate(), CPUPerRow: cpuPerRow(b), SweepP50: sweepP50(b),
			SweepTail: sweepTail(b), FirstRowP50: firstRowP50(b), RSS: b.rss,
		})
	}
}

// perLayer computes the traced run's per-layer metrics and lists the
// layers the workload leaves idle.
func perLayer(s *system, in inputs, p *phase, eng *engineStats, untracedRowsPerS float64, dir string) (map[string]metric, []string, error) {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	rows := float64(p.rows)
	st := s.tr.stats(p.start, p.windowEnd)
	perRow := func(x float64) float64 { return x / rows }
	var idle []string

	// engine: off-clock replay of the sampled rows; executions over the
	// whole run.
	var timedExecs uint64
	for i := range p.post.execs {
		timedExecs += p.post.execs[i] - p.before.execs[i]
	}
	if timedExecs == 0 {
		idle = append(idle, "engine")
	}
	sc := float64(max(eng.scenarios, 1))
	set("engine.us_per_scenario", "us", us(eng.wall)/sc)
	set("engine.rounds_stepped_per_scenario", "rounds", float64(eng.stepped)/sc)
	set("engine.rounds_leapt_per_scenario", "rounds", float64(eng.leapt)/sc)
	set("engine.executions_per_fp", "count", float64(s.executions())/float64(in.distinct))
	for i := range 3 {
		var v float64
		if i < len(s.nodes) {
			v = float64(s.nodes[i].mgr.Stats().Executions)
		}
		set("engine.executions."+nodeName(i), "count", v)
	}

	// admission: server-side POST /v1/sweeps handler time; local expand +
	// fingerprint per row.
	set("admission.post_us_p50", "us", median(st.values("handler.submit", us)))
	set("admission.expand_fp_us_per_row", "us", us(eng.expandWall)/float64(max(eng.expandRows, 1)))

	// sched: the coordinator's spans, Started - Enqueued, over the sweeps
	// the node still retains.
	var waits []float64
	for _, r := range p.recs {
		tr, ok := s.nodes[0].mgr.Trace(r.id)
		if !ok {
			continue
		}
		for _, sp := range tr.Spans {
			if !sp.EnqueuedAt.IsZero() {
				waits = append(waits, ms(sp.StartedAt.Sub(sp.EnqueuedAt)))
			}
		}
	}
	set("sched.queue_wait_ms_p50", "ms", median(waits))
	set("sched.queue_wait_ms_p90", "ms", quantile(waits, 0.9))

	// cache: memory-tier hit ratio in the window, plus an off-clock replay
	// of the sampled results through a fresh service cache.
	hits, miss := p.post.hits-p.before.hits, p.post.miss-p.before.miss
	set("cache.mem_hit_ratio", "fraction", float64(hits)/float64(max(hits+miss, 1)))
	get, put, err := cacheReplay(s.w, filepath.Join(dir, "cache-replay"), eng.results)
	if err != nil {
		return nil, nil, err
	}
	set("cache.get_us_p50", "us", get)
	set("cache.put_us_p50", "us", put)
	set("cache.disk_writes_per_row", "count", perRow(float64(p.post.diskEnts-p.before.diskEnts)))
	if p.post.diskEnts == p.before.diskEnts {
		idle = append(idle, "cache.disk")
	}

	// route: counters differenced over the window.
	metricDelta := func(name string) float64 { return p.post.metrics[name] - p.before.metrics[name] }
	if len(s.nodes) == 1 {
		idle = append(idle, "route")
	}
	set("route.local_frac", "fraction", perRow(float64(p.post.execs[0]-p.before.execs[0])))
	set("route.proxied_frac", "fraction", perRow(float64(p.post.proxied-p.before.proxied)))
	set("route.steals", "count", metricDelta("dynring_cluster_steals_total"))
	set("route.hedges", "count", metricDelta("dynring_cluster_hedges_total"))
	set("route.fallbacks", "count", metricDelta("dynring_cluster_proxy_fallbacks_total"))

	// hop: the nodes' transports, POST /v1/run.
	runs := st.count("rt.run")
	if runs == 0 {
		idle = append(idle, "hop")
	}
	var wire []float64
	for _, d := range st.wire {
		wire = append(wire, us(d))
	}
	set("hop.run_per_row", "count", perRow(float64(runs)))
	set("hop.run_rtt_us_p50", "us", median(st.values("rt.run", us)))
	set("hop.run_rtt_us_p99", "us", quantile(st.values("rt.run", us), 0.99))
	set("hop.run_wire_us_p50", "us", median(wire))
	set("hop.bytes_per_row", "B", perRow(float64(st.bytes["rt.run"])))
	set("hop.probes", "count", float64(st.count("rt.probe")))

	// replication: pushes and their bytes, the drain after the last row,
	// anti-entropy passes (one key listing each).
	pushes := float64(st.count("rt.replicate"))
	if pushes == 0 {
		idle = append(idle, "replication")
	}
	set("replication.pushes_per_row", "count", perRow(pushes))
	set("replication.bytes_per_push", "B", float64(st.bytes["rt.replicate"])/max(pushes, 1))
	set("replication.drain_ms", "ms", p.overBlocks(func(b block) float64 { return ms(b.drain) }))
	set("replication.ae_passes", "count", float64(st.count("rt.ae-keys")))

	// stream: re-serve settled sweeps through the results handler into a
	// buffer, off the clock, so the time is encode and copy, not waiting.
	encUS, encBytes := streamReplay(s, p)
	set("stream.encode_us_per_row", "us", encUS)
	set("stream.bytes_per_row", "B", encBytes)

	// client: the two client calls per sweep; retries are requests beyond
	// the three a sweep needs (submit, status, results).
	var submit, stream []float64
	for _, r := range p.recs {
		submit = append(submit, us(r.submit))
		stream = append(stream, ms(r.stream))
	}
	set("client.submit_us_p50", "us", median(submit))
	set("client.stream_ms_p50", "ms", median(stream))
	clientReqs := st.count("rt.submit") + st.count("rt.status") + st.count("rt.results")
	set("client.retries", "count", float64(clientReqs-3*len(p.recs)))

	set("trace_overhead_frac", "fraction", 1-p.rowsPerS()/untracedRowsPerS)
	return out, idle, nil
}

// cacheReplay puts then gets every replayed result through a fresh tiered
// service cache (the workload's memory tier over a durable tier in dir)
// and returns the per-operation p50s in µs. A Put's durable write is
// queued, not awaited, as in the service.
func cacheReplay(w workload, dir string, results map[string]dynring.Result) (get, put float64, err error) {
	c, err := service.NewTieredCache(w.CacheSize, dir, nil)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	var gets, puts []float64
	for fp, res := range results {
		t := time.Now()
		c.Put(fp, res)
		puts = append(puts, us(time.Since(t)))
	}
	for fp := range results {
		t := time.Now()
		if _, ok := c.Get(fp); !ok {
			return 0, 0, fmt.Errorf("perfbench: cache replay lost %s", fp)
		}
		gets = append(gets, us(time.Since(t)))
	}
	return median(gets), median(puts), nil
}

// streamReplay serves the results of the most recent settled sweeps
// straight through node-a's handler into an in-memory writer and returns
// µs and bytes per row.
func streamReplay(s *system, p *phase) (float64, float64) {
	h := service.NewHandler(s.nodes[0].mgr)
	var rows, size int
	var wall time.Duration
	recs := p.recs[max(0, len(p.recs)-64):]
	for _, r := range recs {
		if r.id == "" {
			continue
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+r.id+"/results", nil)
		t := time.Now()
		h.ServeHTTP(rec, req)
		wall += time.Since(t)
		size += rec.Body.Len()
		rows += bytes.Count(rec.Body.Bytes(), []byte("\n"))
	}
	if rows == 0 {
		return 0, 0
	}
	return us(wall) / float64(rows), float64(size) / float64(rows)
}
