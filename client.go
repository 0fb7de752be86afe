package dynring

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynring/internal/sim"
	"dynring/internal/wire"
)

// This file is the Go client of the ringsimd sweep service
// (internal/service, cmd/ringsimd) and the wire types its HTTP API speaks.
// The types live in the root package so remote submission uses the same
// vocabulary as local execution: build a SweepSpec, and either materialize
// it locally (SweepSpec.Sweep) or hand it to a Client.

// TraceHeader is the HTTP header that propagates a sweep's trace ID: the
// service stamps it on POST /v1/sweeps responses, accepts a caller-supplied
// ID on submission, and forwards it across POST /v1/run proxy hops so every
// span a sweep causes — on any node — carries one trace ID.
const TraceHeader = "X-Dynring-Trace"

// TenantHeader is the HTTP header that carries a tenant's API key on
// work-creating requests, as an alternative to "Authorization: Bearer".
// The service's cluster proxy sends the originating tenant's key on POST
// /v1/run hops as "Authorization: Bearer", so the owning node accounts
// the execution to that tenant.
const TenantHeader = "X-Dynring-Tenant"

// TotalHeader carries a job's grid size on every GET
// /v1/sweeps/{id}/results response, so a client checks the stream for
// truncation without asking for the job's status first.
const TotalHeader = "X-Dynring-Total"

// JobStatus is the service's snapshot of one sweep job.
type JobStatus struct {
	ID string `json:"id"`
	// TraceID is the sweep's trace identifier; GET /v1/sweeps/{id}/trace
	// returns the spans recorded under it.
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the admission principal the job was accepted under.
	Tenant string `json:"tenant,omitempty"`
	// State is "running", "done" or "cancelled".
	State string `json:"state"`
	// Total is the grid size; Completed counts settled scenarios (finished,
	// served from cache, or cancelled); Errors counts settled scenarios
	// that carry an error.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Errors    int `json:"errors"`
	// CacheHits counts scenarios served from the result cache.
	CacheHits int       `json:"cache_hits"`
	Created   time.Time `json:"created"`
}

// Done reports whether the job has settled (every scenario completed,
// whether by running, cache hit, or cancellation).
func (s JobStatus) Done() bool { return s.State != "running" }

// StreamAbortedIndex is the Index of the terminal error row the service
// appends when a results stream dies before delivering every row (e.g. the
// request's context expired server-side). Data rows are numbered from 0, so
// the sentinel can never collide with one. A stream that ends without
// either all rows or this sentinel was truncated in transit.
const StreamAbortedIndex = -1

// ResultRow is one line of a job's NDJSON result stream, in grid order.
// Every field is a deterministic function of the scenario, so the stream of
// a completed job is byte-identical across repeats and worker counts; in
// particular there is deliberately no cache/wall-time field here — those
// live in JobStatus and ServiceStats.
type ResultRow struct {
	// Index is the row's grid position, or StreamAbortedIndex on the
	// terminal row of an aborted stream.
	Index       int    `json:"index"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Result is set when the run finished; Error carries validation, engine
	// or cancellation failures.
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// AppendJSON appends the row's JSON form to dst: exactly the bytes
// encoding/json emits for the row (omitempty result and error, HTML-escaped
// strings), without a trailing newline. Appending into a reused buffer
// does not allocate for rows whose strings need no escaping.
func (r ResultRow) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"name":`...)
	dst = wire.AppendString(dst, r.Name)
	dst = append(dst, `,"fingerprint":`...)
	dst = wire.AppendString(dst, r.Fingerprint)
	if r.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = sim.AppendResult(dst, r.Result)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = wire.AppendString(dst, r.Error)
	}
	return append(dst, '}')
}

// ParseResultRow decodes one results-stream row into *row, which it
// overwrites. Rows in the canonical form AppendJSON emits take a fast
// path; any other input is decoded by json.Unmarshal, which defines what
// is accepted (unknown fields are ignored) and the error for what is not.
func ParseResultRow(data []byte, row *ResultRow) error {
	*row = ResultRow{}
	if readResultRow(data, row) {
		return nil
	}
	*row = ResultRow{}
	return json.Unmarshal(data, row)
}

// readResultRow is ParseResultRow's fast path; it reports whether data was
// canonical and fully read.
func readResultRow(data []byte, row *ResultRow) bool {
	l := wire.NewLexer(data)
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "index":
			l.Field(&seen, 0)
			row.Index = l.Int()
		case "name":
			l.Field(&seen, 1)
			row.Name = l.String()
		case "fingerprint":
			l.Field(&seen, 2)
			row.Fingerprint = l.String()
		case "result":
			l.Field(&seen, 3)
			row.Result = new(Result)
			sim.ReadResult(&l, row.Result)
		case "error":
			l.Field(&seen, 4)
			row.Error = l.String()
		default:
			l.Fail()
		}
	}
	return l.End()
}

// TraceSpan is one traced scenario of a sweep as exposed by
// GET /v1/sweeps/{id}/trace: which node served it, how (executed, cache
// hit, or proxied to its owner), and when. Spans adopted from a proxy hop
// carry the owning node's name, so a proxied sweep's trace shows work from
// multiple nodes under the one trace ID.
type TraceSpan struct {
	// Index is the scenario's grid position; Name its expanded grid name.
	Index int    `json:"index"`
	Name  string `json:"name,omitempty"`
	// Node is the advertised URL of the node the span ran on ("local" for
	// a standalone service).
	Node string `json:"node"`
	// Kind is "executed", "cache-hit", "proxied" (the coordinator-side
	// hop record) or "error".
	Kind string `json:"kind"`
	// EnqueuedAt→StartedAt is the scenario's queue wait; StartedAt→
	// FinishedAt its execution (or proxy round trip). EnqueuedAt is zero
	// for spans recorded outside a job queue (the /v1/run handler).
	EnqueuedAt time.Time `json:"enqueued_at,omitempty"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// Error carries the failure when Kind is "error".
	Error string `json:"error,omitempty"`
}

// SweepTrace is the GET /v1/sweeps/{id}/trace document: the spans of one
// sweep under its trace ID, in grid order. Each row that settled on the
// coordinator has one span; a proxied row has the owner's span before it.
// Rows settled by cancellation have none. A trace is bounded by its grid
// and retained exactly as long as its job.
type SweepTrace struct {
	SweepID string      `json:"sweep_id"`
	TraceID string      `json:"trace_id"`
	Spans   []TraceSpan `json:"spans"`
}

// CacheStats snapshots the service's result cache.
type CacheStats struct {
	// Size and Capacity count entries. Capacity 0 means the cache is
	// disabled (ringsimd -cache 0): lookups short-circuit, so Hits and
	// Misses both stay 0 — "caching off", not a 0% hit rate.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits and Misses count Get outcomes since startup; on a disabled
	// cache neither counter ever advances.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// DiskTierStats snapshots the durable content-addressed result tier
// (ringsimd -data); it appears in /statsz when the tier is enabled.
type DiskTierStats struct {
	// Entries and Bytes describe the durable entries, those whose disk
	// write is still queued included (at their encoded size): every one
	// is readable.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// QueueDepth counts writes waiting on the asynchronous writer;
	// -drain flushes it to zero before exit.
	QueueDepth int `json:"queue_depth"`
	// Hits and Misses count disk-tier lookups (memory-tier misses that
	// fell through); Skipped counts corrupt entries ignored since boot.
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Skipped int    `json:"skipped"`
}

// JobQueueStat is one job's scheduler backlog in /statsz.
type JobQueueStat struct {
	ID string `json:"id"`
	// Tenant is the scheduler lane the job queues in.
	Tenant string `json:"tenant,omitempty"`
	// Pending counts scenarios not yet dispatched to a worker.
	Pending int `json:"pending"`
}

// TenantStat is one tenant's admission accounting in /statsz; present only
// on nodes running with a tenant config.
type TenantStat struct {
	Name string `json:"name"`
	// Weight is the WDRR weight the scheduler uses: a configured weight
	// below 1 reads 1.
	Weight int `json:"weight"`
	// QueuedScenarios is the tenant's undispatched backlog (what MaxQueued
	// bounds); RunningJobs its admitted, unsettled jobs (what
	// MaxConcurrent bounds).
	QueuedScenarios int   `json:"queued_scenarios"`
	RunningJobs     int64 `json:"running_jobs"`
	// Admitted and Rejected count submissions past and against the quota
	// checks; ServedTasks counts scenario dispatches (the realized
	// weighted share).
	Admitted    uint64 `json:"admitted"`
	Rejected    uint64 `json:"rejected"`
	ServedTasks uint64 `json:"served_tasks"`
}

// ServiceStats is the /statsz document.
type ServiceStats struct {
	// Jobs counts the jobs currently retained (settled jobs are evicted
	// beyond the server's job-history bound, so this is not monotonic);
	// ActiveJobs counts those still running.
	Jobs       int `json:"jobs"`
	ActiveJobs int `json:"active_jobs"`
	// Workers is the shared pool size.
	Workers int `json:"workers"`
	// Executions counts scenarios actually run on this node (cache misses
	// that were not proxied); Proxied counts scenarios this node routed to
	// their owning peer instead of executing. Summing Executions across a
	// cluster's nodes gives the cluster-wide execution count, which is how
	// the exactly-once property is observable.
	Executions uint64     `json:"executions"`
	Proxied    uint64     `json:"proxied"`
	Cache      CacheStats `json:"cache"`
	// HitRatio is the combined cache-tier hit ratio: of all result
	// lookups, the fraction served without executing (memory or disk
	// tier). With the memory tier off (-cache 0) every lookup reaches
	// the disk tier, so its lookups are the denominator. 0 when nothing
	// has been looked up yet, or with neither tier (caching off).
	HitRatio float64 `json:"hit_ratio"`
	// Disk describes the durable tier; absent when -data is unset.
	Disk *DiskTierStats `json:"disk,omitempty"`
	// Queue lists per-job scheduler backlogs for jobs with undispatched
	// scenarios, in submission order.
	Queue []JobQueueStat `json:"queue"`
	// Tenants lists per-tenant admission accounting, in the server's
	// declared tenant order; absent without a tenant config.
	Tenants []TenantStat `json:"tenants,omitempty"`
	// Cluster mirrors /v1/cluster (peer states included) so one /statsz
	// poll captures capacity and topology; absent when clustering is off.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// Client talks to a ringsimd service. The zero value is not usable; call
// NewClient. Methods are safe for concurrent use.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Result streams are
	// long-lived: give it no overall Timeout (use the ctx instead).
	HTTPClient *http.Client
	// Retries bounds the retry attempts after a transient failure of a
	// JSON API call (a transport error or a 5xx response): one blip on a
	// long sweep must not fail the whole run. 0 means the default of 3;
	// negative disables retries. Retried POSTs can duplicate a submission
	// when the lost response had actually landed — harmless here, since a
	// duplicate job is served from the result cache.
	Retries int
	// RetryBaseDelay seeds the retry backoff: attempts sleep
	// RetryBaseDelay, then double per retry, capped at retryMaxDelay, and
	// the sleep aborts as soon as ctx does. 0 means the default of 50ms.
	RetryBaseDelay time.Duration
	// TenantKey, when set, is sent as "Authorization: Bearer <key>" on
	// every request — the client's identity against a service running with
	// a tenant config. WithTenant overrides it per submission.
	TenantKey string
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// defaultRetries, defaultRetryDelay and retryMaxDelay shape the transient
// retry policy of Client.do.
const (
	defaultRetries    = 3
	defaultRetryDelay = 50 * time.Millisecond
	retryMaxDelay     = 2 * time.Second
)

func (c *Client) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return defaultRetries
	}
	return c.Retries
}

func (c *Client) retryDelay() time.Duration {
	if c.RetryBaseDelay <= 0 {
		return defaultRetryDelay
	}
	return c.RetryBaseDelay
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// backoffJitter draws one retry sleep from the "full jitter" distribution:
// uniform in (0, d]. The doubling schedule still caps the window (so the
// k-th retry waits at most base·2^k), but the actual sleep is randomized
// across the whole window — deterministic backoff makes every client that
// failed together retry together, re-spiking the very server they are
// backing off from; jitter decorrelates the waves. The draw is never 0:
// a zero sleep would skip the context-aware wait entirely.
func backoffJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d))) + 1
}

// errorDoc is the service's error body.
type errorDoc struct {
	Error string `json:"error"`
}

// do issues a bodiless request and decodes a JSON body into out (when
// non-nil). Non-2xx responses are turned into errors carrying the server's
// message. Transient failures — transport errors, 5xx responses, and 429
// quota rejections — are retried with capped exponential backoff (see
// Client.Retries); other 4xx responses and context cancellation are
// terminal. A 429 carrying Retry-After waits out the server's hint instead
// of the computed backoff step.
func (c *Client) do(ctx context.Context, method, path string, out any) error {
	return c.doWith(ctx, method, path, nil, nil, out)
}

// doWith is do with per-call options (nil: none) rendered as request
// headers on every attempt, so retried requests stay attributed to the
// same trace and tenant, and with a request body. body (nil: none) is a
// wire encoder, a spec's AppendJSON: doWith appends the body once into a
// buffer from reqBufs, sends those bytes with their Content-Length on
// every attempt, and returns the buffer once no attempt's body can still
// be read (see reqBody).
func (c *Client) doWith(ctx context.Context, method, path string, so *submitOptions, body func([]byte) ([]byte, error), out any) error {
	var rb *reqBody
	if body != nil {
		buf := reqBufs.Get().(*[]byte)
		data, err := body((*buf)[:0])
		if err != nil {
			reqBufs.Put(buf)
			return err
		}
		*buf = data
		rb = &reqBody{buf: buf}
		defer rb.release()
	}
	delay := c.retryDelay()
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.doOnce(ctx, method, path, so, rb, out); err == nil || !transientError(err) {
			return err
		}
		if attempt >= c.retries() {
			return err
		}
		// Prefer the server's own Retry-After hint (a 429's statement of
		// when quota headroom is expected) over the blind backoff step;
		// computed steps are jittered, the server's explicit hint is not.
		wait := backoffJitter(delay)
		var se *serverError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			wait = se.RetryAfter
		}
		// The sleep is context-aware: a cancelled caller aborts the backoff
		// immediately instead of burning the remaining window.
		if serr := sleepCtx(ctx, wait); serr != nil {
			return err
		}
		delay = min(delay*2, retryMaxDelay)
	}
}

// doOnce is one attempt of doWith.
func (c *Client) doOnce(ctx context.Context, method, path string, so *submitOptions, body *reqBody, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	if body != nil {
		if req.Body, err = body.reader(); err != nil {
			return err
		}
		req.ContentLength = int64(len(*body.buf))
		req.GetBody = body.reader
		req.Header.Set("Content-Type", "application/json")
	}
	if c.TenantKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.TenantKey)
	}
	if so != nil {
		so.setHeaders(req.Header)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return remoteError(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	// Response documents (statuses, traces, stats, RunResponse) are one
	// per request, not per row: they stay on encoding/json.
	return json.NewDecoder(resp.Body).Decode(out)
}

// reqBufs recycles the request-body buffers of doWith. Buffers up to
// maxPooledReq bytes return to it; a rare larger one is left to the
// collector.
var reqBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReq = 64 << 10

// reqBody is one call's request body, in a buffer from reqBufs, shared by
// every attempt: each attempt's req.Body and each GetBody copy is a reader
// of it. Under net/http's RoundTripper contract the transport closes every
// body it is given, but it may read and close one after RoundTrip, and so
// Do, has returned. So the buffer returns to the pool only if, when the
// call is over, every reader handed out has been closed; a closed reader
// never touches the buffer again. Otherwise the buffer is left to the
// collector.
type reqBody struct {
	buf  *[]byte
	mu   sync.Mutex
	open int  // readers handed out and not yet closed
	done bool // the call is over: no reader may be handed out
}

// reader hands out a new reader of the body; it is also the request's
// GetBody.
func (b *reqBody) reader() (io.ReadCloser, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return nil, errors.New("dynring: request body read after its call returned")
	}
	b.open++
	return &bodyReader{b: b, rest: *b.buf}, nil
}

// release ends the call, returning the buffer to reqBufs if no reader is
// open.
func (b *reqBody) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done = true
	if b.open == 0 && cap(*b.buf) <= maxPooledReq {
		reqBufs.Put(b.buf)
	}
}

// bodyReader is one reader of a reqBody. Read and Close hold the body's
// lock, so once Close has returned no Read is still copying out of the
// buffer.
type bodyReader struct {
	b      *reqBody
	rest   []byte
	closed bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.closed {
		return 0, errors.New("dynring: read of a closed request body")
	}
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

func (r *bodyReader) Close() error {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if !r.closed {
		r.closed, r.rest = true, nil
		r.b.open--
	}
	return nil
}

// serverError is a non-2xx response as an error; Code drives the retry
// decision and RetryAfter (from a 429's Retry-After header) the backoff.
type serverError struct {
	Code       int
	Status     string
	Message    string
	RetryAfter time.Duration
}

func (e *serverError) Error() string {
	return fmt.Sprintf("dynring: server %s: %s", e.Status, e.Message)
}

// transientError reports whether err is worth retrying: any 5xx (the
// service restarting, a proxy hiccup, ErrClosed during a rolling drain), a
// 429 quota rejection (headroom frees as queued work drains), and any
// transport-level failure (connection refused, reset, timeout) that is not
// the caller's own context ending. Other 4xx responses — bad spec, unknown
// job, bad credentials — are deterministic and never retried.
func transientError(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *serverError
	if errors.As(err, &se) {
		return se.Code >= 500 || se.Code == http.StatusTooManyRequests
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// remoteError converts a non-2xx response into an error, preferring the
// server's JSON error message and capturing its Retry-After hint (whole
// seconds; the HTTP-date form is not used by this service).
func remoteError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := string(bytes.TrimSpace(raw))
	var doc errorDoc
	if json.Unmarshal(raw, &doc) == nil && doc.Error != "" {
		msg = doc.Error
	}
	se := &serverError{Code: resp.StatusCode, Status: resp.Status, Message: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// SubmitOption qualifies one request that creates work (SubmitSweep,
// RunSweep, RunSweepFunc, RunScenario).
type SubmitOption func(*submitOptions)

type submitOptions struct {
	tenantKey string
	trace     string
}

// newSubmitOptions applies opts in order.
func newSubmitOptions(opts []SubmitOption) *submitOptions {
	so := &submitOptions{}
	for _, opt := range opts {
		opt(so)
	}
	return so
}

// WithTenant submits under the given tenant API key, overriding the
// client's TenantKey for this call.
func WithTenant(key string) SubmitOption {
	return func(o *submitOptions) { o.tenantKey = key }
}

// WithTrace sends the request under trace ID id (TraceHeader), so the
// receiving node records its spans under the caller's trace rather than a
// fresh one. An empty id sends no header.
func WithTrace(id string) SubmitOption {
	return func(o *submitOptions) { o.trace = id }
}

// setHeaders renders the options as request headers.
func (o *submitOptions) setHeaders(h http.Header) {
	if o.tenantKey != "" {
		h.Set("Authorization", "Bearer "+o.tenantKey)
	}
	if o.trace != "" {
		h.Set(TraceHeader, o.trace)
	}
}

// SubmitSweep submits a grid and returns the new job's status. The job runs
// on the server regardless of what happens to this client; cancel it with
// CancelSweep.
func (c *Client) SubmitSweep(ctx context.Context, spec SweepSpec, opts ...SubmitOption) (JobStatus, error) {
	var st JobStatus
	err := c.doWith(ctx, http.MethodPost, "/v1/sweeps", newSubmitOptions(opts), spec.AppendJSON, &st)
	return st, err
}

// SweepStatus fetches a job's status.
func (c *Client) SweepStatus(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, &st)
	return st, err
}

// CancelSweep cancels a job and returns its post-cancellation status.
// Cancelling a settled job is a no-op.
func (c *Client) CancelSweep(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+id, &st)
	return st, err
}

// SweepTrace fetches a job's trace view: the per-scenario spans recorded
// under the sweep's trace ID, including spans adopted from remote nodes the
// sweep's scenarios were proxied to.
func (c *Client) SweepTrace(ctx context.Context, id string) (SweepTrace, error) {
	var tr SweepTrace
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/trace", &tr)
	return tr, err
}

// ServiceStats fetches the /statsz counters.
func (c *Client) ServiceStats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	err := c.do(ctx, http.MethodGet, "/statsz", &st)
	return st, err
}

// StreamResults streams a job's results in grid order, calling fn once per
// row as each becomes available; it blocks until the job settles, ctx is
// cancelled, or fn returns an error (which aborts the stream and is
// returned).
//
// Truncation is an error, never silence: every results response carries
// the job's row count in TotalHeader (a response without a valid one is an
// error), a terminal StreamAbortedIndex row from the server surfaces as its
// error, and a stream that ends short of the full grid without one
// (connection cut, proxy timeout) is rejected too. fn is never invoked for
// the terminal sentinel row.
//
// A transiently failed stream is resumed, not restarted: the client
// reconnects with ?from=<next index> (the server's resume cursor) up to
// Retries times, and rows the server re-serves below the cursor are
// silently skipped, so fn observes each index at most once regardless of
// how many reconnects it took. Resume attempts reset whenever a connection
// makes progress; negative Retries disables resumption along with every
// other retry.
func (c *Client) StreamResults(ctx context.Context, id string, fn func(ResultRow) error) error {
	return c.StreamResultsFrom(ctx, id, 0, fn)
}

// errStop wraps an error the resume loop must not retry, so it can tell
// "the consumer gave up" or "the server's answer is not a results stream"
// (terminal, unwrap) from "the stream broke" (resumable).
type errStop struct{ err error }

func (e *errStop) Error() string { return e.err.Error() }

// StreamResultsFrom is StreamResults starting at grid index from: rows
// below from are never delivered. It is the resume primitive — a consumer
// that already holds rows [0,N) continues with from=N after its own
// restart, not just after a transport blip. A from past the job's last row
// is the server's 400.
func (c *Client) StreamResultsFrom(ctx context.Context, id string, from int, fn func(ResultRow) error) error {
	if from < 0 {
		return fmt.Errorf("dynring: resume index %d is negative", from)
	}
	next := from
	delay := c.retryDelay()
	var lastErr error
	for attempt := 0; ; attempt++ {
		before := next
		err := c.streamOnce(ctx, id, &next, fn)
		if err == nil {
			return nil
		}
		var stop *errStop
		if errors.As(err, &stop) {
			return stop.err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		var se *serverError
		if errors.As(err, &se) && !transientError(err) {
			// A deterministic rejection of the resume GET itself (404 after
			// job eviction, 400 on a bad cursor) cannot be waited out.
			return err
		}
		if next > before {
			// The connection made progress before dying; a stream can be
			// arbitrarily long-lived, so progress re-earns the full retry
			// budget rather than draining one global allowance.
			attempt = 0
			delay = c.retryDelay()
		}
		if attempt >= c.retries() {
			return err
		}
		lastErr = err
		if serr := sleepCtx(ctx, backoffJitter(delay)); serr != nil {
			return lastErr
		}
		delay = min(delay*2, retryMaxDelay)
	}
}

// lineBufs recycles streamOnce's line buffers. A buffer outlives no row:
// ParseResultRow copies every string and slice out of its line.
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, 4<<10)
	return &b
}}

// streamOnce runs one results connection from *next, advancing *next past
// each row it delivers. Rows below *next (re-served by a resume) are
// skipped without invoking fn. fn errors and a response without a valid
// TotalHeader come back wrapped in errStop; every other failure is a
// broken stream the caller may resume.
func (c *Client) streamOnce(ctx context.Context, id string, next *int, fn func(ResultRow) error) error {
	path := "/v1/sweeps/" + id + "/results"
	if *next > 0 {
		path += "?from=" + strconv.Itoa(*next)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	if c.TenantKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.TenantKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	total, err := strconv.Atoi(resp.Header.Get(TotalHeader))
	if err != nil || total < 0 {
		return &errStop{fmt.Errorf("dynring: results response has no valid %s: %q", TotalHeader, resp.Header.Get(TotalHeader))}
	}
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	sc := bufio.NewScanner(resp.Body)
	// Start from a pooled buffer of the scanner's default size and grow
	// only for a row that needs it; most rows are a few hundred bytes.
	sc.Buffer(*buf, 4<<20)
	// One row, overwritten by each parse, so the row ParseResultRow's
	// encoding/json fallback makes escape is allocated once per stream
	// rather than once per row; fn gets a copy.
	var row ResultRow
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := ParseResultRow(line, &row); err != nil {
			// Typically a line cut mid-write by a dying connection; the
			// resume re-fetches it whole.
			return fmt.Errorf("dynring: bad result row: %w", err)
		}
		if row.Index < 0 {
			if row.Error != "" {
				return fmt.Errorf("dynring: server aborted result stream after %d/%d rows: %s", *next, total, row.Error)
			}
			return fmt.Errorf("dynring: server aborted result stream after %d/%d rows", *next, total)
		}
		if row.Index < *next {
			continue
		}
		if row.Index > *next {
			return fmt.Errorf("dynring: result stream skipped from row %d to %d", *next, row.Index)
		}
		*next = row.Index + 1
		if err := fn(row); err != nil {
			return &errStop{err}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if *next < total {
		return fmt.Errorf("dynring: result stream truncated: got %d of %d rows", *next, total)
	}
	return nil
}

// RunSweep submits the grid, waits for every result, and returns them in
// grid order as SweepResults — the same shape local Sweep.Run yields, so
// Aggregate and existing reporting code work unchanged. Scenario values are
// reconstructed by expanding the spec locally (also validating it before
// anything is sent); Wall is zero, since the server deliberately does not
// report nondeterministic timings. On ctx cancellation the server-side job
// is cancelled too.
func (c *Client) RunSweep(ctx context.Context, spec SweepSpec, opts ...SubmitOption) ([]SweepResult, error) {
	return c.RunSweepFunc(ctx, spec, nil, nil, opts...)
}

// RunSweepFunc is RunSweep with progress hooks: onStart (when non-nil) is
// called once with the created job's status, and onRow with each
// reconstructed result as it streams in — which is how cmd/ringsim renders
// live remote sweeps. On any failure after submission the server-side job
// is cancelled best-effort, and the results collected so far are returned
// with the error.
func (c *Client) RunSweepFunc(ctx context.Context, spec SweepSpec, onStart func(JobStatus), onRow func(SweepResult), opts ...SubmitOption) ([]SweepResult, error) {
	scenarios, err := spec.ScenarioList()
	if err != nil {
		return nil, err
	}
	st, err := c.SubmitSweep(ctx, spec, opts...)
	if err != nil {
		return nil, err
	}
	if onStart != nil {
		onStart(st)
	}
	if st.Total != len(scenarios) {
		c.abandonSweep(st.ID)
		return nil, fmt.Errorf("dynring: server expanded %d scenarios, local expansion has %d", st.Total, len(scenarios))
	}
	out := make([]SweepResult, 0, len(scenarios))
	err = c.StreamResults(ctx, st.ID, func(row ResultRow) error {
		if row.Index < 0 || row.Index >= len(scenarios) {
			return fmt.Errorf("dynring: result index %d out of range", row.Index)
		}
		r := SweepResult{Index: row.Index, Scenario: scenarios[row.Index]}
		if row.Error != "" {
			r.Err = errors.New(row.Error)
		} else if row.Result != nil {
			r.Result = *row.Result
		}
		out = append(out, r)
		if onRow != nil {
			onRow(r)
		}
		return nil
	})
	if err != nil {
		// On any failure — cancellation or a broken stream — cancel the
		// server-side job; it would otherwise keep burning pool slots with
		// no consumer.
		c.abandonSweep(st.ID)
		return out, err
	}
	return out, nil
}

// abandonSweep best-effort-cancels a job this client no longer consumes,
// on its own short deadline (the caller's ctx may already be dead).
func (c *Client) abandonSweep(id string) {
	cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = c.CancelSweep(cctx, id)
}
