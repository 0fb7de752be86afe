package service

import (
	"bufio"
	"bytes"
	"context"
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
// Each routed row walks one list: its replica set in ring order, then
// this node. nextStop takes the walk's next stop, skipping every peer that
// is not routable at that moment, so placement stays a pure function and
// health is read at every step. The walk ends at this node's own place in
// the set: a later replica walking the same row stops at this node or
// earlier, so going past it could leave two coordinators each sending the
// row to the other, and both running it. A
// worker takes the first step when it releases the row. A batch that
// fails because of the peer — an error, a stream that ends early, or
// nothing streamed for ProxyTimeout — takes the next step for each of its
// unsettled rows and for the rows its outbox holds; rows moved on like
// this are sent at once, and a row whose walk is used up runs here
// through ExecuteLocal as a proxy fallback. A batch the job's cancel
// interrupts is no fault: the abort settles its rows.

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
	// owners is fp's replica set in ring order, owners[0] its owner; the
	// walk goes on at owners[next]. A row served by any other peer is a
	// replica hit.
	owners  []string
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

// route settles row i, which a worker picked up at start, or hands it on.
// When the row's first step reaches a peer, a result already in this
// node's tiers settles it — adopted, replicated and previously proxied
// results answer repeats here — and otherwise it joins that peer's
// outbox. A row whose walk reaches this node at once, or that has no wire
// form (a custom factory), runs here; ExecuteLocal's own probe is then
// its only lookup, so each scheduled row counts one hit or miss. Every
// row a worker picks up goes through route exactly once.
func (h *hops) route(i int, start time.Time) {
	m, j := h.m, h.j
	r := &hopRow{i: i, start: start, owners: m.membership.Ring().Owners(j.fps[i], m.replicas)}
	var target string
	target, r.next = nextStop(r.owners, r.next, m.membership.Self(), m.membership.Routable)
	var res dynring.Result
	var cached bool
	if target != "" {
		if res, cached = m.cache.Get(j.fps[i]); !cached {
			r.line = h.line(i)
		}
	}
	var first *batch
	var size int
	h.mu.Lock()
	if r.line != nil {
		box := h.queueLocked(r, target)
		if !box.opened {
			box.opened = true
			first, size = h.takeLocked(box)
		}
	}
	h.releasedLocked()
	h.mu.Unlock()
	switch {
	case cached:
		j.setRow(i, Row{Cached: true, Result: res, started: start})
	case r.line == nil:
		m.runLocal(j, i, start)
	case first != nil:
		// The worker carries an outbox's first row itself and waits for
		// it, like the per-row hop: releasing every row at once kept the
		// processors busy with workers while the first answers waited for
		// one (perfbench trio first_row_p50_ms +30%, bound 24%).
		h.send(first, size)
	}
}

// nextStop is the route walk's step: from owners[next] on, the first peer
// routable now, returned with the position after it; or "" when the row
// runs here — the walk reached self's place in the set, or the set is
// used up. It reads nothing but its arguments.
func nextStop(owners []string, next int, self string, routable func(string) bool) (string, int) {
	for next < len(owners) {
		o := owners[next]
		next++
		if o == self {
			return "", next
		}
		if routable(o) {
			return o, next
		}
	}
	return "", next
}

// line is row i's RunRequest as one NDJSON line, or nil when the row has
// no wire form.
func (h *hops) line(i int) []byte {
	sp, err := h.j.scenarios[i].WireSpec()
	if err != nil {
		return nil
	}
	// Append on the stack, then copy out at the line's exact size.
	var scratch [512]byte
	line, err := dynring.RunRequest{Scenario: sp}.AppendJSON(scratch[:0])
	if err != nil {
		return nil
	}
	return append(append(make([]byte, 0, len(line)+1), line...), '\n')
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

// queueLocked queues r in target's outbox and returns that outbox.
func (h *hops) queueLocked(r *hopRow, target string) *outbox {
	box := h.boxes[target]
	if box == nil {
		box = &outbox{target: target}
		h.boxes[target] = box
	}
	box.queued = append(box.queued, r)
	return box
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
// arrive. Each line restarts the ProxyTimeout timer. The request
// carries the sweep's trace ID and the job's tenant key; the job's cancel
// ends the batch through the job's context.
func (h *hops) post(b *batch, size int) error {
	m, j := h.m, h.j
	body := make([]byte, 0, size)
	for _, r := range b.rows {
		body = append(body, r.line...)
	}
	u, err := m.peers.url(b.box.target, "/v1/run")
	if err != nil {
		return err
	}
	hdr := http.Header{"Content-Type": {ndjsonType}, "User-Agent": noUserAgent, "Accept-Encoding": acceptIdentity,
		dynring.TraceHeader: {j.traceID}}
	if key := m.TenantKey(j.Tenant); key != "" {
		hdr["Authorization"] = []string{"Bearer " + key}
	}
	idle := time.AfterFunc(m.proxyTimeout, b.cancel)
	defer idle.Stop()
	sent := time.Now()
	resp, err := m.peers.send(b.ctx, http.MethodPost, u, hdr, body)
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
	if target != r.owners[0] {
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

// finish retires b after post returned err. Unless the job is over — the
// abort settles its rows then, and our own cancel is no evidence against
// the peer — an error, or a stream that left rows unanswered, is the
// peer's fault: finish marks it failed and walks b's unsettled
// remainder, and the rows queued behind b, on to their next stop. Rows
// whose walk is used up run here as fallbacks.
func (h *hops) finish(b *batch, err error) {
	m, j := h.m, h.j
	box := b.box
	h.mu.Lock()
	var rest []*hopRow
	for _, r := range b.rows[b.lo:] {
		if !r.settled {
			rest = append(rest, r)
		}
	}
	if j.ctx.Err() != nil || (err == nil && len(rest) == 0) {
		h.mu.Unlock()
		return
	}
	if err == nil {
		err = fmt.Errorf("stream ended with %d of %d rows unanswered", len(rest), len(b.rows))
	}
	rest = append(rest, box.queued...)
	box.queued = nil
	var fallback []*hopRow
	for _, r := range rest {
		var target string
		target, r.next = nextStop(r.owners, r.next, m.membership.Self(), m.membership.Routable)
		if target != "" {
			moved := h.queueLocked(r, target)
			moved.opened = true
			h.sendLocked(moved)
		} else {
			fallback = append(fallback, r)
		}
	}
	h.mu.Unlock()

	m.membership.MarkFailed(box.target, err)
	m.log.Warn("proxy batch failed, failing over",
		"target", box.target, "trace", j.traceID, "job", j.ID, "rows", len(b.rows), "error", err)
	for _, r := range fallback {
		m.met.proxyFallbacks.Inc()
		m.log.Warn("every proxy target failed, executing locally",
			"fingerprint", j.fps[r.i], "trace", j.traceID, "job", j.ID)
		m.runLocal(j, r.i, r.start)
	}
}
