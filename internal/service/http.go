package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynring"
)

// maxSpecBytes bounds a POST /v1/sweeps or POST /v1/run body; the proxy
// dispatcher splits batches to stay under it.
const maxSpecBytes = 1 << 20

// ndjsonType is the media type of the results stream and of the batch
// form of POST /v1/run.
const ndjsonType = "application/x-ndjson"

// maxEnvelopeBytes bounds a POST /v1/replicate body: one result envelope,
// whose Moves/TerminatedAt slices scale with ring size.
const maxEnvelopeBytes = 8 << 20

// bodyBufs is the one request-body pool: POST /v1/sweeps, POST /v1/run
// and POST /v1/replicate each read their body into a buffer from it and
// return the buffer the moment the body is decoded (decodeBody). That is
// safe because their decoders — dynring.AdmitRows, under admitSweep and
// decodeRunBody, and decodeReplicate — copy every string and slice out of
// the body, on the fast path and the encoding/json fallback alike
// (TestPooledBodiesAreCopiedOut). Buffers up to maxPooledBody bytes are
// recycled; a rare larger one is left to the collector.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// NewHandler serves the ringsimd HTTP API on top of a Manager:
//
//	POST   /v1/sweeps               submit a dynring.SweepSpec, returns JobStatus (201)
//	GET    /v1/sweeps/{id}          JobStatus
//	GET    /v1/sweeps/{id}/results  NDJSON dynring.ResultRow stream in grid order (?from=N resumes),
//	                                with the grid size in dynring.TotalHeader
//	GET    /v1/sweeps/{id}/trace    dynring.SweepTrace (per-scenario spans)
//	DELETE /v1/sweeps/{id}          cancel, returns post-cancellation JobStatus
//	POST   /v1/run                  execute one scenario synchronously, returns RunResponse;
//	                                with Content-Type application/x-ndjson, a batch: one RunRequest
//	                                per line in, one RunResponse line per row out as rows settle
//	GET    /v1/cluster              dynring.ClusterStatus (this node's cluster view)
//	POST   /v1/replicate            peer pushes one completed envelope, answered by a bodiless 204
//	                                (replicated clusters only)
//	GET    /v1/antientropy/keys     durable-tier fingerprint listing (replicated clusters only)
//	GET    /v1/antientropy/entry    one validated envelope, ?fp=... (replicated clusters only)
//	GET    /healthz                 liveness
//	GET    /statsz                  dynring.ServiceStats (cache + execution counters)
//	GET    /metrics                 Prometheus text exposition of the node's registry
//
// Trace propagation: POST /v1/sweeps accepts a caller-supplied trace ID in
// dynring.TraceHeader (generating one otherwise) and stamps the job's ID
// back on the response; POST /v1/run reads the same header so a proxy
// hop's spans are recorded under the originating sweep's trace and returned
// in RunResponse.Span, one per row, for the coordinator to adopt. A hop's
// work is bound to its request: when the coordinator's job is cancelled,
// or its -proxy-timeout gives up on the batch, the request's context ends
// the owner's runs.
//
// Admission: on a node with a tenant config, the two work-creating
// endpoints (POST /v1/sweeps, POST /v1/run) require a configured tenant's
// API key — "Authorization: Bearer <key>" or dynring.TenantHeader —
// answering 401 to anything else, and 429 with a Retry-After header when
// the tenant is over quota. Everything else (status, results, cancel, stats) stays
// open: job IDs are unguessable enough for this service's trust model, and
// an operator can always inspect or kill work. Without a tenant config
// every endpoint is open and all work runs as the anonymous tenant.
// The priority and deadline headers older clients may still send are
// ignored, never refused.
//
// The results stream is live — every settled row is written, and the
// stream is flushed just before the handler waits on a pending row, so a
// consumer never waits on a row the server already holds — and, for a job
// that ran to completion, byte-identical across repeats and worker counts:
// rows carry only deterministic fields.
//
// /v1/run is the cluster's proxy hop and deliberately executes on the
// handler goroutine (a batch on goroutines of its request), never on the
// shared worker pool: if proxy hops queued on the pool, two nodes whose
// workers were all blocked proxying to each other could deadlock.
// Request-level errors (a bad spec on any line) are 4xx; scenario
// execution errors travel inside a 200 RunResponse, mirroring result rows.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		tenant, err := m.ResolveTenant(r)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		opts := SubmitOptions{TraceID: r.Header.Get(dynring.TraceHeader), Tenant: tenant}
		rows, err := decodeBody(w, r, maxSpecBytes, admitSweep)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		j, err := m.submit(rows, opts)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrClosed):
				code = http.StatusServiceUnavailable
			case errors.Is(err, ErrQuotaExceeded):
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", strconv.Itoa(int(RetryAfter.Seconds())))
			}
			writeError(w, code, err)
			return
		}
		st := j.Status()
		w.Header().Set("Location", "/v1/sweeps/"+j.ID)
		w.Header().Set(dynring.TraceHeader, st.TraceID)
		writeJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep id"))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Hold the job before cancelling: a concurrent Submit may prune the
		// (then settled) job from the table before we render its status.
		j, ok := m.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep id"))
			return
		}
		m.Cancel(id)
		// Render the snapshot taken *after* Cancel returned: Cancel settles
		// every pending row synchronously, so the response reports the
		// post-cancellation state ("cancelled", with the cancelled rows in
		// Completed/Errors) — never the stale pre-cancel one. A job that
		// settled before the cancel landed reports "done" unchanged.
		writeJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep id"))
			return
		}
		// ?from=N is the resume cursor: rows are emitted in grid order, so
		// a consumer that already holds rows [0,N) reconnects with from=N
		// and receives exactly the suffix it is missing — byte-identical to
		// the tail of an uninterrupted stream, because rows carry only
		// deterministic fields. from == Total is a valid empty resume.
		from := 0
		if f := r.URL.Query().Get("from"); f != "" {
			var err error
			if from, err = strconv.Atoi(f); err != nil || from < 0 || from > j.Total() {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("bad from=%q: want an integer in [0,%d]", f, j.Total()))
				return
			}
		}
		w.Header().Set("Content-Type", ndjsonType)
		// The grid size, against which the client checks the stream for
		// truncation.
		w.Header().Set(dynring.TotalHeader, strconv.Itoa(j.Total()))
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		// Each row is appended into one reused buffer and written with one
		// Write, as json.Encoder did, and in exactly its bytes.
		var buf []byte
		write := func(row dynring.ResultRow) error {
			buf = append(row.AppendJSON(buf[:0]), '\n')
			_, err := w.Write(buf)
			return err
		}
		for i := from; i < j.Total(); i++ {
			row, ok := j.SettledRow(i)
			if !ok {
				// About to wait on a pending row: push out everything
				// written so far first, so the stream stays live. Settled
				// rows go out back to back and share one flush; the last
				// one is flushed by net/http when the handler returns.
				if flusher != nil {
					flusher.Flush()
				}
				var err error
				if row, err = j.WaitRow(r.Context(), i); err != nil {
					// Aborted mid-stream (request context cancelled —
					// the client disconnected). A silent return would
					// be indistinguishable from a complete stream, so
					// best-effort emit a terminal error row; its
					// negative index can never collide with a data row.
					// Clients additionally guard with a row count (see
					// Client.StreamResults), since this write is lost
					// when the connection itself is dead.
					_ = write(dynring.ResultRow{
						Index: dynring.StreamAbortedIndex,
						Error: "stream aborted: " + err.Error(),
					})
					return
				}
			}
			wire := dynring.ResultRow{
				Index:       i,
				Name:        j.scenarios[i].Name,
				Fingerprint: j.fps[i],
			}
			if row.Err != nil {
				wire.Error = row.Err.Error()
			} else {
				wire.Result = &row.Result
			}
			if err := write(wire); err != nil {
				return
			}
		}
	})

	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		tenant, err := m.ResolveTenant(r)
		if err != nil {
			// Config skew on a proxy hop lands here; the coordinator fails
			// the batch over, and after the last replica runs it locally.
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		batch := strings.HasPrefix(r.Header.Get("Content-Type"), ndjsonType)
		rows, err := decodeBody(w, r, maxSpecBytes, func(body []byte) (admitted, error) {
			return decodeRunBody(body, batch)
		})
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		for range rows.scs {
			m.countRunRequest(tenant)
		}
		if !batch {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			// A failed write means the caller is gone; there is no one to tell.
			_, _ = w.Write(append(m.serveRun(r.Context(), rows.scs[0], rows.fps[0]).AppendJSON(nil), '\n'))
			return
		}
		m.serveRunBatch(r.Context(), w, rows)
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, ok := m.Trace(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep id"))
			return
		}
		writeJSON(w, http.StatusOK, tr)
	})

	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.ClusterStatus())
	})

	// The replication endpoints exist only on a replicated cluster node
	// (Replicas > 1); elsewhere they 404 — a standalone or unreplicated
	// node must not adopt third-party envelopes. Like the health probes
	// they are peer-to-peer and stay outside tenant auth: they create no
	// work, and envelopes are content-addressed (the
	// receiver re-keys by the embedded fingerprint, so the worst a bogus
	// push can do is cache a result nobody asks for). A push is most of a
	// replicated cluster's requests — one per other replica per execution
	// — so its answer is a bare 204. The handler never calls w.Header(),
	// which makes net/http build and then clone the handler's header map;
	// so the server's own Date header stays, as removing it would take
	// that call. Every pusher, old or new, checks only for a 2xx.
	mux.HandleFunc("POST /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		if !m.Replicated() {
			writeError(w, http.StatusNotFound, errors.New("replication not enabled"))
			return
		}
		req, err := decodeBody(w, r, maxEnvelopeBytes, decodeReplicate)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Fingerprint == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing fingerprint"))
			return
		}
		m.AdoptEnvelope(req.Fingerprint, req.Result)
		m.met.replAdopted.Inc()
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/antientropy/keys", func(w http.ResponseWriter, r *http.Request) {
		if !m.Replicated() {
			writeError(w, http.StatusNotFound, errors.New("replication not enabled"))
			return
		}
		keys := m.DurableKeys()
		if keys == nil {
			keys = []string{}
		}
		writeJSON(w, http.StatusOK, antiEntropyKeys{Keys: keys})
	})

	mux.HandleFunc("GET /v1/antientropy/entry", func(w http.ResponseWriter, r *http.Request) {
		if !m.Replicated() {
			writeError(w, http.StatusNotFound, errors.New("replication not enabled"))
			return
		}
		fp := r.URL.Query().Get("fp")
		if fp == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing fp"))
			return
		}
		res, ok := m.DurableEnvelope(fp)
		if !ok {
			// Absent or corrupt — both 404: corruption is never served.
			writeError(w, http.StatusNotFound, errors.New("no durable envelope"))
			return
		}
		writeJSON(w, http.StatusOK, replicateRequest{Fingerprint: fp, Result: res})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	mux.Handle("GET /metrics", m.Registry())

	return mux
}

// admitted are the rows a request admits, as dynring.AdmitRows returns
// them: the scenarios and their fingerprints, each slice at its exact
// size.
type admitted struct {
	scs []dynring.Scenario
	fps []string
}

// admitSweep admits the rows of a POST /v1/sweeps body.
func admitSweep(body []byte) (admitted, error) {
	scs, fps, err := dynring.AdmitRows(nil, nil, nil, body, false)
	return admitted{scs, fps}, err
}

// decodeRunBody admits the rows of a POST /v1/run body: one RunRequest,
// or with batch one per non-blank line. Every row is validated and
// fingerprinted before anything runs, so a bad row fails the whole
// request with a 400.
func decodeRunBody(body []byte, batch bool) (admitted, error) {
	if !batch {
		scs, fps, err := dynring.AdmitRows(nil, nil, nil, body, true)
		return admitted{scs, fps}, err
	}
	// Only lines that decode take room: rows fill arrays on the stack,
	// spilling to the heap only past their length, and are copied out at
	// their exact count.
	var scStack [16]dynring.Scenario
	var fpStack [16]string
	scs, fps := scStack[:0], fpStack[:0]
	for rest := body; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var err error
		if scs, fps, err = dynring.AdmitRows(scs, fps, nil, line, true); err != nil {
			return admitted{}, err
		}
	}
	if len(scs) == 0 {
		return admitted{}, errors.New("empty batch")
	}
	return admitted{append(make([]dynring.Scenario, 0, len(scs)), scs...), append(make([]string, 0, len(fps)), fps...)}, nil
}

// serveRun is the core both forms of POST /v1/run share: serve one row
// through ExecuteLocal and describe it, with this node's span for the
// coordinator to adopt into its sweep trace.
func (m *Manager) serveRun(ctx context.Context, sc dynring.Scenario, fp string) dynring.RunResponse {
	started := time.Now()
	res, cached, err := m.ExecuteLocal(ctx, sc, fp)
	resp := dynring.RunResponse{Fingerprint: fp, Cached: cached}
	span := &dynring.TraceSpan{
		Node:       m.NodeName(),
		Kind:       "executed",
		StartedAt:  started,
		FinishedAt: time.Now(),
	}
	if cached {
		span.Kind = "cache-hit"
	}
	if err != nil {
		resp.Error = err.Error()
		span.Kind = "error"
		span.Error = err.Error()
	} else {
		resp.Result = &res
	}
	resp.Span = span
	return resp
}

// serveRunBatch answers an NDJSON batch with one RunResponse line per row,
// in the order rows settle. It runs up to Workers rows of the batch at a
// time on goroutines of this request, never on the worker pool, so a cold
// batch keeps the parallelism per-row hops had. Like the results stream,
// it flushes only before it would block on the next row, and only when it
// has written a line since the last flush: the header rides with the
// first line.
func (m *Manager) serveRunBatch(ctx context.Context, w http.ResponseWriter, rows admitted) {
	w.Header().Set("Content-Type", ndjsonType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	n := len(rows.scs)
	// Buffered for every row, so no runner blocks once the writer is gone.
	lines := make(chan dynring.RunResponse, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for range min(m.workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
				lines <- m.serveRun(ctx, rows.scs[k], rows.fps[k])
			}
		}()
	}
	var buf []byte
	unflushed := false // lines written since the last flush
	for range n {
		var rr dynring.RunResponse
		select {
		case rr = <-lines:
		default:
			if unflushed && flusher != nil {
				flusher.Flush()
				unflushed = false
			}
			rr = <-lines
		}
		buf = append(rr.AppendJSON(buf[:0]), '\n')
		if _, err := w.Write(buf); err != nil {
			return
		}
		unflushed = true
	}
}

// decodeBody reads r's body, failing past limit bytes, into a buffer from
// bodyBufs, decodes it and returns the buffer to the pool before it
// returns: decode must copy out of the body everything it keeps.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, limit int64, decode func([]byte) (T, error)) (T, error) {
	buf := bodyBufs.Get().(*[]byte)
	body, err := readBody(*buf, w, r, limit)
	var v T
	if err == nil {
		v, err = decode(body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body[:0]
		bodyBufs.Put(buf)
	}
	return v, err
}

// readBody reads a request body whole, failing past limit bytes, reusing
// dst's storage where it is large enough. A body of known length is read
// into one buffer of at least its size and then closed.
func readBody(dst []byte, w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= limit {
		// The server stops a body of known length at its length. Its last
		// read reports EOF, so closing it keeps the connection open and
		// spares the server its post-handler discard of the body, which
		// allocates.
		buf := slices.Grow(dst[:0], int(n))[:n]
		_, err := io.ReadFull(r.Body, buf)
		r.Body.Close()
		return buf, err
	}
	buf := bytes.NewBuffer(dst[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// writeJSON writes v as a JSON response. Status and error documents stay
// on encoding/json: they are small, varied and off the per-row path.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the service's error document.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
