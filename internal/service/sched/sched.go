package sched

import "fmt"

// Scheduler dispatches tasks — (job, scenario index) pairs — according to
// the package's WDRR-over-tenants policy. J is the caller's job handle
// (the service uses *service.Job); the scheduler only needs it to be
// comparable so a job can be removed on cancellation.
//
// Not safe for concurrent use: the owner serializes calls.
type Scheduler[J comparable] struct {
	tenants map[string]*tenant[J]
	// active is the WDRR service FIFO of tenants with dispatchable tasks:
	// the front tenant is being served; it rotates to the back when its
	// deficit is spent, and a tenant that runs dry leaves (re-entering at
	// the back when new work arrives, so it cannot lap the others).
	active  []*tenant[J]
	entries map[J]*entry[J]
	order   []*entry[J] // live entries in submission order, for Snapshot
	backlog int         // undispatched tasks across all tenants
}

// tenant is one admission principal's queue state: its jobs, served fair
// round-robin at task granularity.
type tenant[J comparable] struct {
	name    string
	weight  int
	deficit int
	jobs    []*entry[J] // jobs with undispatched tasks, in arrival order
	rr      int         // next jobs position to serve
	backlog int
}

// entry is one queued job's scheduling state.
type entry[J comparable] struct {
	job    J
	tenant *tenant[J]
	total  int
	next   int // first undispatched scenario index
}

// Task is one dispatch decision.
type Task[J comparable] struct {
	Job   J
	Index int
}

// QueueStat is one queued job's backlog, as reported by Snapshot.
type QueueStat[J comparable] struct {
	Job     J
	Tenant  string
	Pending int
}

// New returns an empty scheduler. Tenants must be added with AddTenant
// before work is enqueued for them.
func New[J comparable]() *Scheduler[J] {
	return &Scheduler[J]{
		tenants: make(map[string]*tenant[J]),
		entries: make(map[J]*entry[J]),
	}
}

// AddTenant declares a tenant. Weights below 1 are raised to 1; a
// re-declaration panics (tenant sets are fixed at boot).
func (s *Scheduler[J]) AddTenant(name string, weight int) {
	if _, ok := s.tenants[name]; ok {
		panic(fmt.Sprintf("sched: tenant %q added twice", name))
	}
	if weight < 1 {
		weight = 1
	}
	s.tenants[name] = &tenant[J]{name: name, weight: weight}
}

// Enqueue adds a job with total dispatchable tasks to its tenant's
// round-robin ring. Panics on an unknown tenant, a duplicate job, or a
// non-positive total — all Manager bugs, not runtime conditions.
func (s *Scheduler[J]) Enqueue(tenantName string, job J, total int) {
	t, ok := s.tenants[tenantName]
	if !ok {
		panic(fmt.Sprintf("sched: enqueue for undeclared tenant %q", tenantName))
	}
	if _, ok := s.entries[job]; ok {
		panic("sched: job enqueued twice")
	}
	if total <= 0 {
		panic("sched: job with no tasks")
	}
	e := &entry[J]{job: job, tenant: t, total: total}
	s.entries[job] = e
	s.order = append(s.order, e)
	s.backlog += total
	wasIdle := t.backlog == 0
	t.backlog += total
	t.jobs = append(t.jobs, e)
	if wasIdle {
		s.active = append(s.active, t)
	}
}

// Next dispatches one task, or reports ok=false when nothing is queued.
func (s *Scheduler[J]) Next() (Task[J], bool) {
	if len(s.active) == 0 {
		return Task[J]{}, false
	}
	t := s.active[0]
	if t.deficit <= 0 {
		t.deficit = t.weight
	}
	e := t.claim()
	t.deficit--
	t.backlog--
	s.backlog--
	if e.next >= e.total {
		s.drop(e)
	}
	if t.backlog == 0 {
		// The tenant ran dry: leave the FIFO with any unspent deficit
		// forfeited.
		s.active = s.active[1:]
		t.deficit = 0
	} else if t.deficit == 0 {
		// Quantum spent: rotate to the back, behind every waiting tenant.
		s.active = append(s.active[1:], t)
	}
	return Task[J]{Job: e.job, Index: e.next - 1}, true
}

// Remove drops a job's undispatched tasks (cancellation). Unknown jobs —
// already fully dispatched, or never enqueued — are a no-op.
func (s *Scheduler[J]) Remove(job J) {
	e, ok := s.entries[job]
	if !ok {
		return
	}
	t := e.tenant
	pending := e.total - e.next
	t.remove(e)
	s.drop(e)
	t.backlog -= pending
	s.backlog -= pending
	if t.backlog == 0 {
		for i, a := range s.active {
			if a == t {
				s.active = append(s.active[:i], s.active[i+1:]...)
				break
			}
		}
		t.deficit = 0
	}
}

// Backlog reports a tenant's undispatched tasks (0 for unknown tenants —
// admission quota checks treat absent as empty).
func (s *Scheduler[J]) Backlog(tenantName string) int {
	if t, ok := s.tenants[tenantName]; ok {
		return t.backlog
	}
	return 0
}

// Len is the total undispatched task count across all tenants.
func (s *Scheduler[J]) Len() int { return s.backlog }

// Snapshot lists every job that still has undispatched tasks, in
// submission order.
func (s *Scheduler[J]) Snapshot() []QueueStat[J] {
	out := make([]QueueStat[J], 0, len(s.order))
	for _, e := range s.order {
		out = append(out, QueueStat[J]{
			Job:     e.job,
			Tenant:  e.tenant.name,
			Pending: e.total - e.next,
		})
	}
	return out
}

// drop forgets a fully-dispatched or cancelled entry.
func (s *Scheduler[J]) drop(e *entry[J]) {
	delete(s.entries, e.job)
	for i, o := range s.order {
		if o == e {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// claim dispatches one task, round-robin between the tenant's jobs, and
// advances the job's cursor. A fully-dispatched job leaves the ring with
// the round-robin cursor still pointing at the next job. Callers
// guarantee t.backlog > 0.
func (t *tenant[J]) claim() *entry[J] {
	if t.rr >= len(t.jobs) {
		t.rr = 0
	}
	e := t.jobs[t.rr]
	e.next++
	if e.next >= e.total {
		t.jobs = append(t.jobs[:t.rr], t.jobs[t.rr+1:]...)
	} else {
		t.rr++
	}
	return e
}

// remove drops e from the tenant's ring, keeping the round-robin cursor on
// the same next job.
func (t *tenant[J]) remove(e *entry[J]) {
	for i, j := range t.jobs {
		if j == e {
			t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
			if i < t.rr {
				t.rr--
			}
			return
		}
	}
}
