package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynring"
)

// sweepRec is what the closed loop records about one sweep.
type sweepRec struct {
	id, trace string
	// latency is submit to last row received; firstRow submit to first
	// row; submit and stream the two client calls.
	latency, firstRow, submit, stream time.Duration
	// bad counts rows that errored, were refused, went missing or carried
	// the wrong fingerprint; replay mismatches are added by check.
	bad  int
	kept []dynring.ResultRow // rows of replay-sampled sweeps
}

// runSweeps drives list through node-a with the closed loop: clients
// goroutines, client c taking sweeps c, c+clients, ...; each streams every
// row of its sweep before submitting the next. capture, when non-nil,
// receives the raw result stream of the list's last sweep.
func (s *system) runSweeps(ctx context.Context, list []sweepIn, capture *bytes.Buffer) []sweepRec {
	recs := make([]sweepRec, len(list))
	var wg sync.WaitGroup
	for c := range s.w.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &dynring.Client{BaseURL: s.nodes[0].url, HTTPClient: s.client}
			for i := c; i < len(list); i += s.w.Clients {
				use := cl
				if capture != nil && i == len(list)-1 {
					use = &dynring.Client{BaseURL: cl.BaseURL, HTTPClient: &http.Client{Transport: &teeRT{base: s.client.Transport, buf: capture}}}
				}
				recs[i] = s.runSweep(ctx, use, list[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// runSweep submits one sweep, streams its rows and checks each inline
// against the fingerprints it must carry.
func (s *system) runSweep(ctx context.Context, cl *dynring.Client, in sweepIn) sweepRec {
	var rec sweepRec
	var sweepSpan uint64
	if s.tr != nil {
		sweepSpan = s.tr.newID()
		ctx = withSpan(ctx, sweepSpan)
	}
	t0 := time.Now()
	st, err := cl.SubmitSweep(ctx, in.spec)
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	if err != nil {
		rec.bad = len(in.fps)
		return rec
	}
	rec.id, rec.trace = st.ID, st.TraceID
	if s.tr != nil {
		ctx = withTrace(ctx, st.TraceID)
	}
	got := 0
	err = cl.StreamResults(ctx, st.ID, func(row dynring.ResultRow) error {
		if got == 0 {
			rec.firstRow = time.Since(t0)
		}
		got++
		if row.Error != "" || row.Result == nil || row.Index >= len(in.fps) || row.Fingerprint != in.fps[row.Index] {
			rec.bad++
		}
		if in.sample {
			rec.kept = append(rec.kept, row)
		}
		return nil
	})
	t2 := time.Now()
	rec.stream, rec.latency = t2.Sub(t1), t2.Sub(t0)
	if err != nil || got < len(in.fps) {
		rec.bad += len(in.fps) - got
	}
	if s.tr != nil {
		s.tr.record(span{ID: sweepSpan, Name: "client.sweep", Party: "client", Trace: st.TraceID, Start: t0, End: t2})
		s.tr.record(span{ID: s.tr.newID(), Parent: sweepSpan, Name: "client.submit", Party: "client", Trace: st.TraceID, Start: t0, End: t1})
		s.tr.record(span{ID: s.tr.newID(), Parent: sweepSpan, Name: "client.stream", Party: "client", Trace: st.TraceID, Start: t1, End: t2})
	}
	return rec
}

// setUp boots the system and brings it to the quiescent state the timed
// phase starts from: membership converged, solo-hot's grids primed, the
// warm-up sweeps run, and replication drained. It returns the system and
// the set-up time.
func setUp(ctx context.Context, w workload, in inputs, tr *tracer) (*system, time.Duration, error) {
	t0 := time.Now()
	s, err := boot(w, tr)
	if err != nil {
		return nil, 0, err
	}
	for _, list := range [][]sweepIn{in.prime, in.warmup} {
		for _, r := range s.runSweeps(ctx, list, nil) {
			if r.bad > 0 {
				s.close()
				return nil, 0, fmt.Errorf("perfbench: %d bad rows during set-up", r.bad)
			}
		}
	}
	if err := s.drain(30 * time.Second); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// counters is a snapshot of the counters a phase differences.
type counters struct {
	execs      []uint64 // per node
	proxied    uint64   // node-a
	hits, miss uint64   // memory tier, all nodes
	diskEnts   int      // all nodes
	metrics    map[string]float64
}

func (s *system) snapshot() counters {
	c := counters{metrics: map[string]float64{}}
	for i, n := range s.nodes {
		st := n.mgr.Stats()
		c.execs = append(c.execs, st.Executions)
		if i == 0 {
			c.proxied = st.Proxied
		}
		c.hits += st.Cache.Hits
		c.miss += st.Cache.Misses
		if st.Disk != nil {
			c.diskEnts += st.Disk.Entries
		}
		// The node's /metrics exposition, summed by series name.
		for _, line := range strings.Split(n.mgr.Registry().Render(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				c.metrics[name] += v
			}
		}
	}
	return c
}

// block is one slice of the timed phase, run from a quiescent start to a
// drained end.
type block struct {
	recs  []sweepRec
	rows  int
	wall  time.Duration // first submit to last row
	drain time.Duration // last row to drained
	cpu   time.Duration // process CPU, first submit to drained
	alloc uint64        // bytes allocated, first submit to drained
	rss   float64       // resident MiB once drained
}

// phase is one timed phase's raw measurements.
type phase struct {
	recs             []sweepRec
	blocks           []block
	rows, bad        int
	start, windowEnd time.Time
	before, post     counters
	capture          bytes.Buffer // raw result stream of the last sweep
}

// sweepsPerBlock is the size of the equal blocks the timed phase is cut
// into. Each block starts after a forced GC and ends once replication has
// drained. With 200 sweeps a block's tail percentile, the highest with ten
// sweeps beyond it, is p95 on every workload.
const sweepsPerBlock = 200

// timed runs the timed phase over in.timed. The CPU and allocation
// windows of each block stay open until its asynchronous work has
// drained, so that work is never cut off at a point that varies by run.
func (s *system) timed(ctx context.Context, in inputs) (*phase, error) {
	p := &phase{}
	p.before = s.snapshot()
	p.start = time.Now()
	n := len(in.timed)
	nBlocks := max(1, (n+sweepsPerBlock/2)/sweepsPerBlock)
	for b := range nBlocks {
		lo, hi := b*n/nBlocks, (b+1)*n/nBlocks
		if lo == hi {
			continue
		}
		var capture *bytes.Buffer
		if hi == n {
			capture = &p.capture
		}
		runtime.GC()
		cpu0, alloc0 := cpuTime(), totalAlloc()
		t0 := time.Now()
		bl := block{recs: s.runSweeps(ctx, in.timed[lo:hi], capture)}
		t1 := time.Now()
		if err := s.drain(60 * time.Second); err != nil {
			return nil, err
		}
		bl.wall, bl.drain = t1.Sub(t0), time.Since(t1)
		bl.cpu, bl.alloc, bl.rss = cpuTime()-cpu0, totalAlloc()-alloc0, rssMB()
		for i, r := range bl.recs {
			bl.rows += len(in.timed[lo+i].fps)
			p.bad += r.bad
		}
		p.rows += bl.rows
		p.recs = append(p.recs, bl.recs...)
		p.blocks = append(p.blocks, bl)
	}
	p.windowEnd = time.Now()
	p.post = s.snapshot()
	return p, nil
}

// overBlocks is the interquartile mean over blocks of f.
func (p *phase) overBlocks(f func(b block) float64) float64 {
	var xs []float64
	for _, b := range p.blocks {
		xs = append(xs, f(b))
	}
	return iqm(xs)
}

// rate is a block's throughput in rows per second.
func (b block) rate() float64 { return float64(b.rows) / b.wall.Seconds() }

// rowsPerS is the interquartile mean of the blocks' throughputs.
func (p *phase) rowsPerS() float64 { return p.overBlocks(block.rate) }

// teeRT copies the body of result-stream responses into buf.
type teeRT struct {
	base http.RoundTripper
	buf  *bytes.Buffer
}

func (t *teeRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/results") {
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.TeeReader(resp.Body, t.buf), resp.Body}
	}
	return resp, err
}

// check verifies a finished phase off the clock and returns the number of
// replay mismatches, or an error naming the first violated invariant:
//
//   - every row of a replay-sampled sweep equals a local Runner replay;
//   - the last sweep re-streamed with ?from=0 and ?from=N is
//     byte-identical to the stream the client first received;
//   - cluster-wide executions equal the distinct fingerprints submitted;
//   - on primed workloads, the timed phase executed nothing.
//
// The replay's timings feed the traced run's engine metrics.
func (s *system) check(ctx context.Context, in inputs, p *phase, eng *engineStats) (int, error) {
	runner := dynring.NewRunner()
	mismatches := 0
	for i, rec := range p.recs {
		if !in.timed[i].sample || rec.bad > 0 {
			continue
		}
		scs, err := in.timed[i].spec.ScenarioList()
		if err != nil {
			return 0, err
		}
		for _, row := range rec.kept {
			t := time.Now()
			res, err := runner.Run(ctx, scs[row.Index])
			if err != nil {
				return 0, fmt.Errorf("perfbench: local replay of %s: %w", row.Name, err)
			}
			eng.add(row.Fingerprint, res, time.Since(t), runner.LastStats())
			want, _ := json.Marshal(res)
			have, _ := json.Marshal(row.Result)
			if !bytes.Equal(want, have) {
				mismatches++
			}
		}
		eng.expand(in.timed[i].spec)
	}
	if err := s.checkStream(ctx, p); err != nil {
		return mismatches, err
	}
	if got := s.executions(); got != uint64(in.distinct) {
		return mismatches, fmt.Errorf("perfbench: exactly-once violated: %d executions for %d distinct fingerprints", got, in.distinct)
	}
	if s.w.HotGrids > 0 {
		var timedExecs uint64
		for i := range p.post.execs {
			timedExecs += p.post.execs[i] - p.before.execs[i]
		}
		if timedExecs != 0 {
			return mismatches, fmt.Errorf("perfbench: %d executions in a timed phase that must be all cache hits", timedExecs)
		}
	}
	return mismatches, nil
}

// checkStream re-reads the last timed sweep with ?from=0 and ?from=N and
// compares both with the stream the client received the first time.
func (s *system) checkStream(ctx context.Context, p *phase) error {
	last := p.recs[len(p.recs)-1]
	first := p.capture.Bytes()
	if last.id == "" || len(first) == 0 {
		return fmt.Errorf("perfbench: no captured stream to re-check")
	}
	get := func(from int) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/sweeps/%s/results?from=%d", s.nodes[0].url, last.id, from), nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	all, err := get(0)
	if err != nil {
		return err
	}
	if !bytes.Equal(all, first) {
		return fmt.Errorf("perfbench: %s re-streamed with ?from=0 differs from its first stream", last.id)
	}
	lines := bytes.SplitAfter(first, []byte("\n"))
	n := len(lines) / 2
	tail, err := get(n)
	if err != nil {
		return err
	}
	if !bytes.Equal(tail, bytes.Join(lines[n:], nil)) {
		return fmt.Errorf("perfbench: %s re-streamed with ?from=%d is not the suffix of its first stream", last.id, n)
	}
	return nil
}
