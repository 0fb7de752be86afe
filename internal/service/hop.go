package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dynring"
)

// This file is the coordinator side of the proxy hop. A worker that finds
// a row routed to a peer hands it to the job's dispatcher, which keeps one
// outbox per (job, target peer). The first row of each outbox is sent at
// once, as a batch of its own carried by the worker that released it, as
// the per-row hop was. The outbox holds every later row until the job's
// last row is released, then sends them together, split only at
// maxSpecBytes. So a fault-free job makes two hops per target it routes
// more than one row to, however fast its rows are released: hop counts
// depend on placement and the cache, never on timing, and there is no
// flush window and no size knob. A batch is one POST /v1/run in NDJSON form; the owner
// streams a RunResponse line back per row as it settles.
//
// A routed row is in exactly one place at a time: one outbox queue, one
// in-flight batch, or settled. Exactly-once stays structural: the owner
// serves every fingerprint through its rescache.Group, and a row settles
// once, from the one outbox or batch that holds it, before the cache put,
// the counters and the span.
//
// A batch that fails because of the peer — an error, a stream that ends
// early, or nothing streamed for ProxyTimeout — fails its unsettled rows
// over to their next routable replica, together with the rows its outbox
// holds, and after the last replica they run locally through
// ExecuteLocal. Rows the dispatcher moves on like this are sent at once.

// hops is one job's proxy dispatcher. Everything below mu is guarded by
// it.
type hops struct {
	m *Manager
	j *Job

	mu    sync.Mutex
	boxes map[string]*outbox // by target peer URL
	// unreleased counts the job's rows no worker has handed on yet; when
	// it reaches 0 the outboxes send what they hold.
	unreleased int
}

// hopRow is one routed row of the job, from release to settlement.
type hopRow struct {
	i     int
	line  []byte    // the row's RunRequest as one NDJSON line
	start time.Time // when a worker released it, for its span
	owner string    // fp's ring owner; a row served elsewhere is a replica hit
	// targets lists the owner, if routable, then its routable replicas;
	// targets[next] is the next one to try.
	targets []string
	next    int
	settled bool // an in-flight batch adopted a line for it
}

// outbox holds the rows bound for one target peer.
type outbox struct {
	target  string
	queued  []*hopRow
	opened  bool // its first row has been sent
	sending bool // a sender goroutine is draining queued
}

// batch is one POST /v1/run carrying rows to box.target.
type batch struct {
	box    *outbox
	rows   []*hopRow
	lo     int // rows[:lo] are settled; where the line lookup starts
	ctx    context.Context
	cancel context.CancelFunc
}

func newHops(m *Manager, j *Job) *hops {
	return &hops{m: m, j: j, boxes: make(map[string]*outbox), unreleased: j.Total()}
}

// release hands row i, routed to targets, to the dispatcher. It reports
// false when the row must run locally instead: it has no wire form
// (a custom factory), or the job's deadline budget is already spent.
// Every row a worker routes goes through release or skip exactly once.
func (h *hops) release(i int, owner string, targets []string, start time.Time) bool {
	line, ok := h.line(i)
	if !ok {
		h.skip()
		return false
	}
	r := &hopRow{i: i, line: line, start: start, owner: owner, targets: targets}
	h.mu.Lock()
	box := h.pushLocked(r)
	var first *batch
	var size int
	if !box.opened {
		box.opened = true
		first, size = h.takeLocked(box)
	}
	h.releasedLocked()
	h.mu.Unlock()
	// The worker carries an outbox's first row itself and waits for it,
	// like the per-row hop: releasing every row at once kept the
	// processors busy with workers while the first answers waited for one
	// (perfbench trio first_row_p50_ms +30%, bound 24%).
	if first != nil {
		h.send(first, size)
	}
	return true
}

// line is row i's RunRequest as one NDJSON line, or false when the row
// must run locally.
func (h *hops) line(i int) ([]byte, bool) {
	if !h.j.deadline.IsZero() && time.Until(h.j.deadline) <= 0 {
		return nil, false
	}
	sp, err := h.j.scenarios[i].WireSpec()
	if err != nil {
		return nil, false
	}
	line, err := json.Marshal(dynring.RunRequest{Scenario: sp})
	if err != nil {
		return nil, false
	}
	return append(line, '\n'), true
}

// skip records that a worker settled one of the job's rows without the
// dispatcher: a cache hit, or a row that runs here.
func (h *hops) skip() {
	h.mu.Lock()
	h.releasedLocked()
	h.mu.Unlock()
}

// releasedLocked counts one row handed on; after the job's last one, every
// outbox sends the rows it holds.
func (h *hops) releasedLocked() {
	if h.unreleased--; h.unreleased > 0 {
		return
	}
	for _, box := range h.boxes {
		if len(box.queued) > 0 {
			h.sendLocked(box)
		}
	}
}

// pushLocked queues r in the outbox of its next target and returns that
// outbox. The caller checks r has a next target.
func (h *hops) pushLocked(r *hopRow) *outbox {
	target := r.targets[r.next]
	r.next++
	box := h.boxes[target]
	if box == nil {
		box = &outbox{target: target}
		h.boxes[target] = box
	}
	box.queued = append(box.queued, r)
	return box
}

// moveLocked queues r for its next target and sends it at once: the
// dispatcher moves rows on by itself only after a failure.
func (h *hops) moveLocked(r *hopRow) {
	box := h.pushLocked(r)
	box.opened = true
	h.sendLocked(box)
}

// sendLocked starts a sender goroutine that sends box's queued rows one
// batch at a time, unless one is running already.
func (h *hops) sendLocked(box *outbox) {
	if box.sending {
		return
	}
	box.sending = true
	h.m.hopWG.Add(1)
	go func() {
		defer h.m.hopWG.Done()
		for {
			b, size := h.next(box)
			if b == nil {
				return
			}
			h.send(b, size)
		}
	}()
}

// send posts b and retires it.
func (h *hops) send(b *batch, size int) {
	h.finish(b, h.post(b, size))
	b.cancel() // detach from the job's context, which outlives b
}

// next takes box's next batch for its sender goroutine. When box holds no
// row or the job is over, it ends the sender and returns nil.
func (h *hops) next(box *outbox) (*batch, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.settleCachedLocked(box)
	if len(box.queued) == 0 || h.j.ctx.Err() != nil {
		box.sending = false
		return nil, 0
	}
	return h.takeLocked(box)
}

// takeLocked makes a batch of box's queued rows — all of them, or as many
// as fit in maxSpecBytes (at least one) — and returns it with its size.
func (h *hops) takeLocked(box *outbox) (*batch, int) {
	n, size := 0, 0
	for n < len(box.queued) && (n == 0 || size+len(box.queued[n].line) <= maxSpecBytes) {
		size += len(box.queued[n].line)
		n++
	}
	b := &batch{box: box, rows: box.queued[:n:n]}
	box.queued = append([]*hopRow(nil), box.queued[n:]...)
	b.ctx, b.cancel = context.WithCancel(h.j.ctx)
	return b, size
}

// settleCachedLocked settles as cache hits the rows queued in box whose
// result reached this node while they waited — a replica's push, most often. Sending those
// would make the owner run them again if it has evicted them since.
func (h *hops) settleCachedLocked(box *outbox) {
	m, j := h.m, h.j
	waiting := box.queued[:0]
	for _, r := range box.queued {
		// Contains first: a miss here must not count against the hit rate.
		var res dynring.Result
		ok := m.cache.Contains(j.fps[r.i])
		if ok {
			res, ok = m.cache.Get(j.fps[r.i])
		}
		if !ok {
			waiting = append(waiting, r)
			continue
		}
		j.setRow(r.i, Row{Cached: true, Result: res, started: r.start})
	}
	clear(box.queued[len(waiting):])
	box.queued = waiting
}

// post sends b and settles its rows from the streamed lines as they
// arrive. Each line restarts the ProxyTimeout timer. The
// request carries the sweep's trace ID, the job's tenant key and the job's
// remaining deadline budget, which also bounds the batch here.
func (h *hops) post(b *batch, size int) error {
	m, j := h.m, h.j
	ctx := b.ctx
	var budget time.Duration
	if !j.deadline.IsZero() {
		if budget = time.Until(j.deadline); budget <= 0 {
			return context.DeadlineExceeded
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	body := make([]byte, 0, size)
	for _, r := range b.rows {
		body = append(body, r.line...)
	}
	u, err := m.peers.url(b.box.target, "/v1/run")
	if err != nil {
		return err
	}
	hdr := http.Header{"Content-Type": {ndjsonType}, "User-Agent": noUserAgent, dynring.TraceHeader: {j.traceID}}
	if key := m.TenantKey(j.Tenant); key != "" {
		hdr["Authorization"] = []string{"Bearer " + key}
	}
	if budget > 0 {
		hdr[DeadlineHeader] = []string{budget.String()}
	}
	idle := time.AfterFunc(m.proxyTimeout, b.cancel)
	defer idle.Stop()
	sent := time.Now()
	resp, err := m.peers.send(ctx, http.MethodPost, u, hdr, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := lineReaders.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil)
		lineReaders.Put(br)
	}()
	for {
		line, err := readLine(br)
		if len(bytes.TrimSpace(line)) > 0 {
			idle.Reset(m.proxyTimeout)
			var rr dynring.RunResponse
			if perr := dynring.ParseRunResponse(line, &rr); perr != nil {
				return perr
			}
			h.settle(b, rr)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	m.met.proxyRTT.Observe(time.Since(sent).Seconds())
	m.met.hopRows.Observe(float64(len(b.rows)))
	return nil
}

// lineReaders recycles the readers batch responses are read through: most
// batches carry a row or two, so a fresh 4 KiB buffer per batch would
// cost more than its lines.
var lineReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// readLine reads one line of any length, newline included.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// settle adopts rr for the first unsettled row of b with its fingerprint.
// A line carrying neither result nor error adopts nothing: the row stays
// unsettled and fails over with the batch's remainder. A row in flight
// belongs to its batch alone, so only b's own goroutine reads or sets its
// settled flag and settle needs no lock.
func (h *hops) settle(b *batch, rr dynring.RunResponse) {
	if rr.Error == "" && rr.Result == nil {
		return
	}
	for b.lo < len(b.rows) && b.rows[b.lo].settled {
		b.lo++
	}
	var r *hopRow
	for _, c := range b.rows[b.lo:] {
		if !c.settled && h.j.fps[c.i] == rr.Fingerprint {
			r = c
			break
		}
	}
	if r == nil {
		return
	}
	r.settled = true

	m, j, i := h.m, h.j, r.i
	target := b.box.target
	m.proxied.Add(1)
	if target != r.owner {
		m.replicaHits.Add(1)
	}
	// The row keeps the owner's span: under one trace ID the sweep's trace
	// then shows both the hop (this node) and the work (the owner).
	row := Row{started: r.start, proxied: true, owner: rr.Span}
	if rr.Error != "" {
		row.Err = errors.New(rr.Error)
	} else {
		// Adopt the owner's result into our own tiers: the fingerprint
		// contract makes cross-node reuse safe, and the local copy serves
		// repeats without another hop.
		m.cache.Put(j.fps[i], *rr.Result)
		row.Cached, row.Result = rr.Cached, *rr.Result
	}
	j.setRow(i, row)
}

// finish retires b after post returned err. A failure caused by the peer
// marks it failed and moves b's unsettled remainder, and the rows queued
// behind b, on to their next targets; rows with none left run locally.
// Our own cancellations (job cancelled or expired) are no evidence
// against the peer.
func (h *hops) finish(b *batch, err error) {
	m, j := h.m, h.j
	h.mu.Lock()
	box := b.box
	if j.ctx.Err() != nil {
		// The job is over: its pending rows are settled by the abort.
		h.mu.Unlock()
		return
	}
	var rest []*hopRow
	for _, r := range b.rows[b.lo:] {
		if !r.settled {
			rest = append(rest, r)
		}
	}
	fault := err != nil && !errors.Is(err, context.DeadlineExceeded)
	if err == nil && len(rest) > 0 {
		fault, err = true, fmt.Errorf("stream ended with %d of %d rows unanswered", len(rest), len(b.rows))
	}
	if fault {
		rest = append(rest, box.queued...)
		box.queued = nil
	}
	var local, fallback []*hopRow
	for _, r := range rest {
		switch {
		case !fault:
			// The deadline budget ran out, not the peer: ExecuteLocal
			// serves a cached result or reports the expiry.
			local = append(local, r)
		case r.next < len(r.targets):
			h.moveLocked(r)
		default:
			fallback = append(fallback, r)
		}
	}
	h.mu.Unlock()

	if fault {
		m.membership.MarkFailed(box.target, err)
		m.log.Warn("proxy batch failed, failing over",
			"target", box.target, "trace", j.traceID, "job", j.ID, "rows", len(b.rows), "error", err)
	}
	for _, r := range fallback {
		m.met.proxyFallbacks.Inc()
		m.log.Warn("every proxy target failed, executing locally",
			"fingerprint", j.fps[r.i], "trace", j.traceID, "job", j.ID)
	}
	for _, r := range append(local, fallback...) {
		m.runLocal(j, r.i, r.start)
	}
}
