package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one traced unit of sweep work: a scenario served from cache,
// executed locally, or proxied to its owning node. Spans adopted from a
// proxy hop's RunResponse carry the remote node's name, which is how a
// coordinator's trace shows work from multiple nodes under one trace ID.
type Span struct {
	// Index is the scenario's grid position; Name its expanded grid name.
	Index int
	Name  string
	// Node is the executing node's advertised URL ("local" standalone).
	Node string
	// Kind classifies the span: "executed", "cache-hit", "proxied" (the
	// coordinator-side hop) or "error".
	Kind string
	// Enqueued, Started and Finished delimit the scenario's queue wait
	// (Enqueued→Started) and execution or hop time (Started→Finished).
	Enqueued, Started, Finished time.Time
	// Err carries the failure when Kind is "error".
	Err string
}

// sweepTrace is one sweep's bounded span buffer.
type sweepTrace struct {
	traceID string
	spans   []Span // ring buffer once len == cap
	next    int    // ring head when full
	full    bool
	dropped int
}

// Tracer records per-sweep spans in bounded ring buffers. Both dimensions
// are capped: at most sweepCap sweeps are tracked (oldest evicted first,
// mirroring the job manager's settled-job history), and each sweep retains
// at most spanCap spans — once the cap is hit the oldest spans are
// overwritten and counted as dropped, so a huge grid costs bounded memory
// while the trace view stays honest about elision. Safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	sweepCap int
	spanCap  int
	sweeps   map[string]*sweepTrace
	order    []string // registration order, for sweep eviction
}

// Default tracer bounds: enough spans for the acceptance grids and typical
// interactive sweeps, small enough that tracing is always on.
const (
	DefaultSweepCap = 256
	DefaultSpanCap  = 2048
)

// NewTracer returns a tracer bounded to sweepCap tracked sweeps of spanCap
// spans each (non-positive: the defaults).
func NewTracer(sweepCap, spanCap int) *Tracer {
	if sweepCap <= 0 {
		sweepCap = DefaultSweepCap
	}
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Tracer{sweepCap: sweepCap, spanCap: spanCap, sweeps: make(map[string]*sweepTrace)}
}

// NewTraceID returns a fresh 16-hex-character trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway, but
		// tracing must never take the service down.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Register starts tracking sweepID under traceID, evicting the oldest
// tracked sweep beyond the bound, with room for rows spans (at most the
// span cap): one span per row records without growing the buffer.
// Re-registering an ID is a no-op.
func (t *Tracer) Register(sweepID, traceID string, rows int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sweeps[sweepID]; ok {
		return
	}
	for len(t.order) >= t.sweepCap {
		delete(t.sweeps, t.order[0])
		t.order = t.order[1:]
	}
	t.sweeps[sweepID] = &sweepTrace{traceID: traceID, spans: make([]Span, 0, min(max(rows, 0), t.spanCap))}
	t.order = append(t.order, sweepID)
}

// Record appends one span to sweepID's buffer, overwriting the oldest span
// (and counting it dropped) once the per-sweep cap is reached. Spans for
// unknown sweeps — evicted, or never registered — are discarded.
func (t *Tracer) Record(sweepID string, s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.sweeps[sweepID]
	if !ok {
		return
	}
	if len(st.spans) < t.spanCap {
		st.spans = append(st.spans, s)
		return
	}
	st.spans[st.next] = s
	st.next = (st.next + 1) % t.spanCap
	st.full = true
	st.dropped++
}

// Snapshot returns sweepID's trace — its trace ID, retained spans in
// record order (oldest first) and the count of spans dropped to the span
// cap — or ok=false when the sweep is unknown.
func (t *Tracer) Snapshot(sweepID string) (traceID string, spans []Span, dropped int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, found := t.sweeps[sweepID]
	if !found {
		return "", nil, 0, false
	}
	out := make([]Span, 0, len(st.spans))
	if st.full {
		out = append(out, st.spans[st.next:]...)
		out = append(out, st.spans[:st.next]...)
	} else {
		out = append(out, st.spans...)
	}
	return st.traceID, out, st.dropped, true
}

// TraceID returns the trace ID assigned to sweepID, or "" when unknown.
func (t *Tracer) TraceID(sweepID string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.sweeps[sweepID]; ok {
		return st.traceID
	}
	return ""
}

// Drop forgets sweepID's trace; the job manager calls it when the job
// itself is evicted from history.
func (t *Tracer) Drop(sweepID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sweeps[sweepID]; !ok {
		return
	}
	delete(t.sweeps, sweepID)
	for i, id := range t.order {
		if id == sweepID {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}
