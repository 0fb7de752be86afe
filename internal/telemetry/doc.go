// Package telemetry is the repo's zero-dependency observability core: a
// small metrics registry (counters, gauges and fixed-bucket histograms,
// with optional constant labels and callback-backed series) rendered in the
// Prometheus text exposition format, and NewTraceID, which mints the trace
// IDs that propagate across cluster proxy hops. A sweep's spans are not
// kept here: they live on its job's rows in the service, retained exactly
// as long as the job.
//
// The registry enforces the repo's metric naming convention at registration
// time — dynring_<subsystem>_<name>, counters ending in _total, histograms
// in a unit (_seconds, _bytes or _rows) — so a misnamed metric fails the first test that
// touches it instead of surviving until a dashboard breaks; the
// scripts/metricscheck lint applies the same rules to the rendered output
// of a live registry.
package telemetry
