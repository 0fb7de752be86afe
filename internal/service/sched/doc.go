// Package sched is the service's scheduler, extracted from the job
// manager: weighted deficit round-robin (WDRR) across per-tenant queues,
// with task-level fair round-robin between jobs inside each tenant.
//
// The Scheduler is a pure data structure — it holds no locks, spawns no
// goroutines and never blocks. The owning Manager serializes every call
// under its own mutex and parks idle workers on its own condition
// variable, which keeps all concurrency in one place and makes the
// scheduling policy unit-testable by driving Next by hand.
//
// Policy, outermost first:
//
//   - Across tenants: WDRR. Each tenant with dispatchable work sits in an
//     active ring and holds a deficit counter. When the cursor reaches a
//     tenant its deficit is refilled to its weight; every dispatched task
//     costs 1, and the cursor only advances once the deficit is spent (or
//     the tenant runs dry). Two saturated tenants at weights 3:1 are
//     therefore served 3:1, while a lone tenant — the default anonymous
//     one — is served continuously, reproducing the pre-tenant scheduler
//     exactly.
//   - Within a tenant: task-level fair round-robin between jobs, one
//     scenario from each job in turn — the seed scheduler's fairness
//     invariant, preserved verbatim (and still pinned by the service's
//     fairness tests). While a job waits, each other job of its tenant
//     is dispatched at most once, so with m live jobs a job is dispatched
//     at least once in every m of the tenant's dispatches, and a late
//     small grid waits for at most one task of each job ahead of it
//     (TestRoundRobinBoundsEveryWait). Work that must overtake a tenant's
//     bulk belongs to a separately keyed tenant with a larger weight.
//
// Quotas are deliberately not sched's concern: admission (rejecting work
// that would exceed a tenant's backlog or concurrency bounds) happens in
// the Manager before Enqueue, so an over-quota tenant simply never has
// work here and can never block anyone else.
package sched
