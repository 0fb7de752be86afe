package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynring"
)

// span is one observed interval at a layer boundary. Spans of one sweep
// share Trace (the service's X-Dynring-Trace ID); Parent links a server
// handler to the client call that caused it, and Hop links a proxy hop's
// client side to the owner's handler.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Party  string    `json:"party"`
	Trace  string    `json:"trace,omitempty"`
	Hop    uint64    `json:"hop,omitempty"`
	Bytes  int64     `json:"bytes,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. It observes the
// service only from outside: a handler middleware around each node, a
// RoundTripper around each transport, and spans around each client call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
}

// Headers the benchmark's own observers add to requests, so a server-side
// span can name the client span or proxy hop that caused it.
const (
	parentHeader = "X-Perfbench-Parent"
	hopHeader    = "X-Perfbench-Hop"
)

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanStats aggregates the spans of one time window by name without
// copying them: durations, body bytes and, for proxy hops, the part of
// each round trip spent outside the owner's /v1/run handler.
type spanStats struct {
	durs  map[string][]time.Duration
	bytes map[string]int64
	wire  []time.Duration
}

// stats aggregates the spans that started within [from, to].
func (t *tracer) stats(from, to time.Time) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := spanStats{durs: map[string][]time.Duration{}, bytes: map[string]int64{}}
	inWindow := func(s *span) bool { return !s.Start.Before(from) && !s.Start.After(to) }
	handler := map[uint64]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if !inWindow(s) {
			continue
		}
		st.durs[s.Name] = append(st.durs[s.Name], s.dur())
		st.bytes[s.Name] += s.Bytes
		if s.Name == "handler.run" && s.Hop != 0 {
			handler[s.Hop] = s.dur()
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if h, ok := handler[s.Hop]; ok && s.Name == "rt.run" && inWindow(s) {
			st.wire = append(st.wire, s.dur()-h)
		}
	}
	return st
}

// count is the number of spans named name.
func (st spanStats) count(name string) int { return len(st.durs[name]) }

// values converts the durations of the spans named name with unit.
func (st spanStats) values(name string, unit func(time.Duration) float64) []float64 {
	var xs []float64
	for _, d := range st.durs[name] {
		xs = append(xs, unit(d))
	}
	return xs
}

// write saves every span as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type ctxKey int

const (
	spanKey ctxKey = iota
	traceKey
)

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey, id)
}

func withTrace(ctx context.Context, trace string) context.Context {
	return context.WithValue(ctx, traceKey, trace)
}

// route names the endpoint a request targets.
func route(method, path string) string {
	switch {
	case path == "/v1/sweeps" && method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(path, "/results"):
		return "results"
	case strings.HasPrefix(path, "/v1/sweeps/"):
		return "status"
	case path == "/v1/run":
		return "run"
	case path == "/v1/replicate":
		return "replicate"
	case path == "/v1/cluster":
		return "probe"
	case path == "/v1/antientropy/keys":
		return "ae-keys"
	case path == "/v1/antientropy/entry":
		return "ae-entry"
	}
	return strings.TrimPrefix(path, "/")
}

// middleware records one span per request a node serves.
func (t *tracer) middleware(party string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		s := span{ID: t.newID(), Name: "handler." + route(r.Method, r.URL.Path), Party: party,
			Trace: r.Header.Get(dynring.TraceHeader), Start: start, End: time.Now()}
		if s.Trace == "" {
			s.Trace = w.Header().Get(dynring.TraceHeader)
		}
		s.Parent, _ = strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		s.Hop, _ = strconv.ParseUint(r.Header.Get(hopHeader), 10, 64)
		t.record(s)
	})
}

// roundTripper wraps one party's transport: each request becomes a span
// that ends when its response body is closed, carrying the request and
// response body bytes.
func (t *tracer) roundTripper(party string, base http.RoundTripper) http.RoundTripper {
	return &traceRT{t: t, party: party, base: base}
}

type traceRT struct {
	t     *tracer
	party string
	base  http.RoundTripper
}

func (rt *traceRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{ID: rt.t.newID(), Name: "rt." + route(req.Method, req.URL.Path), Party: rt.party,
		Trace: req.Header.Get(dynring.TraceHeader), Start: time.Now()}
	req = req.Clone(req.Context())
	if id, ok := req.Context().Value(spanKey).(uint64); ok {
		s.Parent = id
		req.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	}
	if tr, ok := req.Context().Value(traceKey).(string); ok && s.Trace == "" && req.Method == http.MethodGet {
		s.Trace = tr
		req.Header.Set(dynring.TraceHeader, tr)
	}
	if s.Name == "rt.run" {
		s.Hop = s.ID
		req.Header.Set(hopHeader, strconv.FormatUint(s.ID, 10))
	}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		s.End = time.Now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// spanBody closes its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Now()
		b.t.record(b.s)
	})
	return err
}

// engineStats accumulates the off-clock local replay: engine time and
// rounds per scenario, and the expand-plus-fingerprint cost per row.
type engineStats struct {
	scenarios      int
	wall           time.Duration
	stepped, leapt int
	expandRows     int
	expandWall     time.Duration
	// results holds each replayed row's Result by fingerprint, for the
	// off-clock cache replay.
	results map[string]dynring.Result
}

func (e *engineStats) add(fp string, res dynring.Result, d time.Duration, st dynring.RunStats) {
	if e.results == nil {
		e.results = map[string]dynring.Result{}
	}
	e.results[fp] = res
	e.scenarios++
	e.wall += d
	e.stepped += st.RoundsStepped
	e.leapt += st.RoundsLeapt
}

// expand times SweepSpec.ScenarioList plus Scenario.Fingerprint over one
// sweep's rows, the admission work POST /v1/sweeps does per row.
func (e *engineStats) expand(spec dynring.SweepSpec) {
	t := time.Now()
	scs, err := spec.ScenarioList()
	if err != nil {
		return
	}
	for _, sc := range scs {
		_, _ = sc.Fingerprint()
	}
	e.expandWall += time.Since(t)
	e.expandRows += len(scs)
}
