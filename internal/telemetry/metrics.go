package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a series at
// registration. Dynamic label values are deliberately unsupported: every
// series this repo exposes draws its labels from small fixed sets (cache
// tier, peer state, job state), and constant labels keep the registry free
// of the unbounded-cardinality failure mode.
type Label struct {
	Name, Value string
}

// nameRe is the registry's naming convention, stricter than Prometheus's
// own grammar on purpose: dynring_<subsystem>_<name>, all lowercase.
var nameRe = regexp.MustCompile(`^dynring_[a-z]+_[a-z][a-z0-9_]*$`)

// labelNameRe is the Prometheus label-name grammar.
var labelNameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// DefBuckets are the default latency histogram bounds in seconds, spanning
// sub-millisecond engine runs to multi-second proxy hops under load.
var DefBuckets = []float64{.0005, .001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	labels string
	bits   atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative-rendered
// upper bounds (Prometheus `le` semantics); observations above the last
// bound land in the implicit +Inf bucket. Safe for concurrent use; Observe
// is lock-free.
type Histogram struct {
	labels string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// series is one sample-producing member of a family.
type series interface {
	labelBlock() string
}

// funcSeries is a callback-backed counter or gauge: the value is read at
// render time, which is how the registry exposes counters and sizes that
// already live elsewhere (cache stats, membership tables) without double
// accounting.
type funcSeries struct {
	labels string
	fn     func() float64
}

func (c *Counter) labelBlock() string    { return c.labels }
func (g *Gauge) labelBlock() string      { return g.labels }
func (h *Histogram) labelBlock() string  { return h.labels }
func (f *funcSeries) labelBlock() string { return f.labels }

// family is all series sharing one metric name.
type family struct {
	name, help, kind string
	series           []series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration order is render order, so /metrics output
// is deterministic. Safe for concurrent registration, observation and
// rendering.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers and returns a counter series. The name must end in
// _total.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{labels: labelBlock(labels)}
	r.add(name, help, "counter", c)
	return c
}

// CounterFunc registers a counter series whose value is fn(), read at
// render time. Use it to expose an existing monotonic count (an atomic the
// code already maintains) without maintaining it twice.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "counter", &funcSeries{labels: labelBlock(labels), fn: fn})
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{labels: labelBlock(labels)}
	r.add(name, help, "gauge", g)
	return g
}

// GaugeFunc registers a gauge series whose value is fn(), read at render
// time. fn must be safe to call from any goroutine and must not call back
// into the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "gauge", &funcSeries{labels: labelBlock(labels), fn: fn})
}

// Histogram registers and returns a histogram series with the given bucket
// upper bounds (strictly increasing; nil means DefBuckets). The name must
// end in _seconds, _bytes or _rows — histograms carry units by convention.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly increasing", name))
		}
	}
	h := &Histogram{
		labels: labelBlock(labels),
		bounds: buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.add(name, help, "histogram", h)
	return h
}

// add validates the name against the repo conventions and appends the
// series to its family, creating the family on first registration.
// Violations panic: a misnamed or kind-conflicting metric is a programming
// error that every test touching the registry should surface immediately.
func (r *Registry) add(name, help, kind string, s series) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric %q does not match dynring_<subsystem>_<name>", name))
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("telemetry: counter %q must end in _total", name))
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_rows") {
			panic(fmt.Sprintf("telemetry: histogram %q must end in _seconds, _bytes or _rows", name))
		}
	case "gauge":
		for _, suffix := range []string{"_total", "_seconds", "_bytes"} {
			if strings.HasSuffix(name, suffix) {
				panic(fmt.Sprintf("telemetry: gauge %q must not carry the %s suffix", name, suffix))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.fams = append(r.fams, f)
		r.byName[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	f.series = append(f.series, s)
}

// labelBlock renders constant labels once, at registration.
func labelBlock(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !labelNameRe.MatchString(l.Name) {
			panic(fmt.Sprintf("telemetry: bad label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp applies the exposition-format HELP escapes.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WriteText renders every family in the Prometheus text exposition format,
// in registration order.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		ss := make([]series, len(f.series))
		copy(ss, f.series)
		r.mu.Unlock()
		for _, s := range ss {
			writeSeries(w, f.name, s)
		}
	}
}

// Render returns the full exposition document.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// writeSeries renders one series' samples.
func writeSeries(w *strings.Builder, name string, s series) {
	switch v := s.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s%s %s\n", name, v.labels, strconv.FormatUint(v.v.Load(), 10))
	case *Gauge:
		fmt.Fprintf(w, "%s%s %s\n", name, v.labels, formatFloat(v.Value()))
	case *funcSeries:
		fmt.Fprintf(w, "%s%s %s\n", name, v.labels, formatFloat(v.fn()))
	case *Histogram:
		cum := uint64(0)
		for i, bound := range v.bounds {
			cum += v.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(v.labels, formatFloat(bound)), cum)
		}
		// The +Inf bucket equals _count by definition; read the overflow
		// slot rather than count so a torn concurrent Observe cannot make
		// +Inf lag a bucket it already incremented.
		cum += v.counts[len(v.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(v.labels, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, v.labels, formatFloat(math.Float64frombits(v.sum.Load())))
		fmt.Fprintf(w, "%s_count%s %d\n", name, v.labels, v.count.Load())
	}
}

// mergeLE splices the le label into an existing (possibly empty) constant
// label block.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders integral values without an exponent or trailing
// fraction so counters and sizes stay grep-able by the smoke scripts.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ServeHTTP implements http.Handler: GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(r.Render()))
}
