// Command metricscheck is the metric-naming lint behind the CI docs job: it
// boots a real service.Manager in every shape that registers metric
// families (standalone, disk tier, cluster, tenant admission), renders the
// registry's Prometheus text exposition, and fails on any family whose name
// violates the repository convention
//
//	dynring_<subsystem>_<name>[_total|_seconds|_bytes|_rows]
//
// with counters required to end in _total, histograms in a unit (_seconds,
// _bytes or _rows), and gauges in neither _total, _seconds nor _bytes. Linting the rendered output rather than
// the source means a metric registered anywhere — including behind a
// cluster-only branch — is checked exactly as a scraper would see it.
package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"

	"dynring/internal/service"
)

// nameRe mirrors internal/telemetry's registration rule; the lint
// re-validates from the rendered text so the two cannot drift apart
// silently (a registry bug that stopped enforcing would fail here).
var nameRe = regexp.MustCompile(`^dynring_[a-z]+_[a-z][a-z0-9_]*$`)

func main() {
	var problems []string
	for shape, opts := range shapes() {
		text, err := render(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: %v\n", shape, err)
			os.Exit(1)
		}
		problems = append(problems, lint(shape, text)...)
		// The tenants shape exists to cover the per-tenant admission
		// families; their absence means the branch silently stopped
		// registering, which the generic lint cannot notice.
		if shape == "tenants" && !strings.Contains(text, "dynring_admission_") {
			problems = append(problems, "tenants: no dynring_admission_* families rendered")
		}
		// Likewise the cluster shape must carry the replication counters —
		// replica-hit and anti-entropy-repair accounting is the observable
		// half of the exactly-once argument under failover — plus the
		// gray-failure families (peer health states, probe failures), the
		// hop batch sizes and the replication push families, each envelope
		// direction included.
		if shape == "cluster" {
			for _, fam := range []string{
				"dynring_cluster_replica_hits_total",
				"dynring_cluster_antientropy_repairs_total",
				"dynring_cluster_peers",
				"dynring_cluster_probe_failures_total",
				"dynring_cluster_hop_rows",
				`dynring_cluster_replication_envelopes_total{dir="sent"}`,
				`dynring_cluster_replication_envelopes_total{dir="skipped"}`,
				`dynring_cluster_replication_envelopes_total{dir="adopted"}`,
				"dynring_cluster_replication_push_seconds",
				"dynring_cluster_replication_push_failures_total",
				"dynring_cluster_replication_queue_depth",
			} {
				if !strings.Contains(text, fam) {
					problems = append(problems, "cluster: family "+fam+" not rendered")
				}
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "metricscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "metricscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("metricscheck: ok")
}

// shapes returns one Options per registration branch: the catalogue differs
// between a standalone node, a node with the durable tier, and a cluster
// member, and all three must pass.
func shapes() map[string]service.Options {
	dir, err := os.MkdirTemp("", "metricscheck")
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	return map[string]service.Options{
		"standalone": {Workers: 1, CacheSize: 8},
		"disk":       {Workers: 1, CacheSize: 8, DiskDir: dir},
		"cluster": {Workers: 1, CacheSize: 8, Cluster: service.ClusterOptions{
			Self:     "http://127.0.0.1:0",
			Peers:    []string{"http://127.0.0.1:1"},
			Replicas: 3,
		}},
		"tenants": {Workers: 1, CacheSize: 8, Tenants: []service.TenantConfig{
			{Name: "alice", Key: "sk-alice", Weight: 3, MaxQueued: 64, MaxConcurrent: 4},
			{Name: "bob", Key: "sk-bob", Weight: 1},
		}},
	}
}

// render boots a manager, renders its registry, and shuts it down.
func render(opts service.Options) (string, error) {
	m, err := service.New(opts)
	if err != nil {
		return "", err
	}
	defer m.Close()
	return m.Registry().Render(), nil
}

// lint validates every `# TYPE <name> <kind>` line of one exposition.
func lint(shape, text string) []string {
	var problems []string
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			problems = append(problems, fmt.Sprintf("%s: malformed TYPE line %q", shape, line))
			continue
		}
		name, kind := fields[2], fields[3]
		seen++
		if !nameRe.MatchString(name) {
			problems = append(problems, fmt.Sprintf("%s: metric %s does not match dynring_<subsystem>_<name>", shape, name))
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("%s: counter %s must end in _total", shape, name))
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_rows") {
				problems = append(problems, fmt.Sprintf("%s: histogram %s must end in _seconds, _bytes or _rows", shape, name))
			}
		case "gauge":
			for _, suffix := range []string{"_total", "_seconds", "_bytes"} {
				if strings.HasSuffix(name, suffix) {
					problems = append(problems, fmt.Sprintf("%s: gauge %s must not carry the %s suffix", shape, name, suffix))
				}
			}
		default:
			problems = append(problems, fmt.Sprintf("%s: metric %s has unknown kind %s", shape, name, kind))
		}
	}
	if seen == 0 {
		problems = append(problems, fmt.Sprintf("%s: exposition rendered no metric families", shape))
	}
	return problems
}
