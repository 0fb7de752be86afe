package service

import (
	"context"
	"sync"
	"time"

	"dynring"
)

// State is a job's lifecycle phase.
type State int

const (
	// StateRunning covers a job from submission until every row settles.
	StateRunning State = iota
	// StateDone means every scenario finished (ran, or was served from
	// cache) without the job being cancelled.
	StateDone
	// StateCancelled means the job was cancelled; unfinished rows carry
	// context.Canceled.
	StateCancelled
)

// String implements fmt.Stringer with the wire names of JobStatus.State.
func (s State) String() string {
	switch s {
	case StateDone:
		return "done"
	case StateCancelled:
		return "cancelled"
	default:
		return "running"
	}
}

// Row is one settled scenario of a job.
type Row struct {
	// Done marks the row as settled; the remaining fields are meaningless
	// until it is set.
	Done bool
	// Cached reports the result came from the cache rather than a run.
	Cached bool
	Result dynring.Result
	Err    error

	// How the row settled on this node, for the sweep trace: when a worker
	// picked it up (zero for rows settled by cancel, which have no span)
	// and when it settled; whether a peer served it, and that peer's span
	// from the hop response (nil if none came back).
	started, finished time.Time
	proxied           bool
	owner             *dynring.TraceSpan
}

// Job is one submitted sweep: the expanded grid plus per-row completion
// state. Scheduling state (the dispatch cursor) lives in the Manager's
// sched.Scheduler, not here; everything below mu is guarded by mu.
type Job struct {
	ID      string
	created time.Time

	// Tenant is the admission principal the job was accepted under
	// (AnonymousTenant when the node has no tenant config); immutable
	// after newJob.
	Tenant string

	// traceID is the sweep's trace identifier (immutable after newJob);
	// spans recorded for this job's scenarios carry it, on every node.
	traceID string

	scenarios []dynring.Scenario
	fps       []string

	// hops is the job's proxy dispatcher (nil when standalone).
	hops *hops

	// ctx is cancelled by Cancel (or Manager.Close); in-flight runs abort
	// through it.
	ctx    context.Context
	cancel context.CancelFunc

	// onSettle, when set (by the Manager, before the job is queued), is
	// called exactly once when the job leaves StateRunning; onRow, when
	// set, once per row as it settles. Both run under mu and must not take
	// the Manager's mutex.
	onSettle func()
	onRow    func(i int)

	mu        sync.Mutex
	cond      *sync.Cond // broadcast on every row settling / state change
	rows      []Row
	completed int
	errors    int
	hits      int
	state     State
}

// newJob builds a job over an expanded grid.
func newJob(id, traceID string, scenarios []dynring.Scenario, fps []string, now time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        id,
		created:   now,
		traceID:   traceID,
		scenarios: scenarios,
		fps:       fps,
		ctx:       ctx,
		cancel:    cancel,
		rows:      make([]Row, len(scenarios)),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Total is the grid size.
func (j *Job) Total() int { return len(j.scenarios) }

// setRow settles row i, stamping when it settled. Late results racing a
// cancellation are dropped, spans and all: the first settle wins.
func (j *Job) setRow(i int, r Row) {
	r.Done = true
	r.finished = time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rows[i].Done {
		return
	}
	j.rows[i] = r
	if j.onRow != nil {
		j.onRow(i)
	}
	j.completed++
	if r.Err != nil {
		j.errors++
	}
	if r.Cached {
		j.hits++
	}
	if j.completed == len(j.rows) && j.state == StateRunning {
		j.state = StateDone
		if j.onSettle != nil {
			j.onSettle()
		}
	}
	j.cond.Broadcast()
}

// markCancelled settles every pending row with context.Canceled and flips
// the job to StateCancelled; a job already settled is left as it is. Rows
// that already settled keep their results — a repeat submission will
// still hit the cache for them. The job's context is cancelled first by
// the caller, so in-flight runs abort promptly; their late setRow calls
// are ignored.
func (j *Job) markCancelled() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	for i := range j.rows {
		if !j.rows[i].Done {
			if j.onRow != nil {
				j.onRow(i)
			}
			j.rows[i] = Row{Done: true, Err: context.Canceled}
			j.completed++
			j.errors++
		}
	}
	j.state = StateCancelled
	if j.onSettle != nil {
		j.onSettle()
	}
	j.cond.Broadcast()
}

// Status snapshots the job.
func (j *Job) Status() dynring.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return dynring.JobStatus{
		ID:        j.ID,
		TraceID:   j.traceID,
		Tenant:    j.Tenant,
		State:     j.state.String(),
		Total:     len(j.rows),
		Completed: j.completed,
		Errors:    j.errors,
		CacheHits: j.hits,
		Created:   j.created,
	}
}

// trace builds the sweep's trace document from its rows, in grid order:
// for each row that settled on this node (named node), the owner's span
// first when a peer served the row, then this node's own span.
func (j *Job) trace(node string) dynring.SweepTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := dynring.SweepTrace{SweepID: j.ID, TraceID: j.traceID, Spans: make([]dynring.TraceSpan, 0, j.completed)}
	for i, r := range j.rows {
		if r.started.IsZero() {
			continue
		}
		name := j.scenarios[i].Name
		if o := r.owner; o != nil {
			out.Spans = append(out.Spans, dynring.TraceSpan{Index: i, Name: name, Node: o.Node, Kind: o.Kind,
				StartedAt: o.StartedAt, FinishedAt: o.FinishedAt, Error: o.Error})
		}
		s := dynring.TraceSpan{Index: i, Name: name, Node: node, Kind: "executed",
			EnqueuedAt: j.created, StartedAt: r.started, FinishedAt: r.finished}
		switch {
		case r.Err != nil:
			s.Kind, s.Error = "error", r.Err.Error()
		case r.proxied:
			s.Kind = "proxied"
		case r.Cached:
			s.Kind = "cache-hit"
		}
		out.Spans = append(out.Spans, s)
	}
	return out
}

// SettledRow returns row i and true if it has settled, without blocking;
// otherwise the zero Row and false.
func (j *Job) SettledRow(i int) (Row, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows[i], j.rows[i].Done
}

// WaitRow blocks until row i settles (returning it) or ctx is cancelled
// (returning ctx's error). It is how the streaming results handler walks a
// job in grid order while it is still executing.
func (j *Job) WaitRow(ctx context.Context, i int) (Row, error) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.rows[i].Done {
		if err := ctx.Err(); err != nil {
			return Row{}, err
		}
		j.cond.Wait()
	}
	return j.rows[i], nil
}

// Wait blocks until the job settles or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.state == StateRunning {
		if err := ctx.Err(); err != nil {
			return err
		}
		j.cond.Wait()
	}
	return nil
}
