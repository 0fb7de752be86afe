// Package service is the ringsimd sweep service, layered along the
// submit path:
//
//   - Admission (Manager, admission.go): resolves each work-creating
//     request to a tenant (API key → TenantConfig; one implicit anonymous
//     tenant when no config is given), enforces per-tenant quotas —
//     rejections surface as 429 with a Retry-After hint.
//   - Scheduling (the sched subpackage): weighted deficit round-robin
//     across tenants and task-level fair round-robin between a tenant's
//     jobs, dispatched onto one shared, bounded worker pool. With a single anonymous tenant the
//     policy collapses to plain fair round-robin between jobs — the
//     service's original scheduler, bit-for-bit.
//   - Execution and caching: a content-addressed result cache keyed by
//     Scenario.Fingerprint, deliberately tenant-agnostic — identical work
//     from different tenants is admitted separately but executed once.
//   - The HTTP/JSON API serving all of it (see NewHandler and
//     cmd/ringsimd), including resumable NDJSON result streams
//     (GET /v1/sweeps/{id}/results?from=N).
//
// Cache correctness rests on the public package's determinism contract:
// a scenario's Fingerprint covers every input that influences its Result,
// and equal fingerprints imply identical Results — so serving a cached
// Result is indistinguishable from re-running the scenario, whichever
// tenant first paid for it.
package service
