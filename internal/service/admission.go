package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dynring"
)

// AnonymousTenant is the implicit tenant every request maps to when no
// -tenants config is given: weight 1, no quotas — byte-for-byte the
// pre-admission scheduler. It is reserved; a config may not redeclare it.
const AnonymousTenant = "anonymous"

// ErrQuotaExceeded is the admission rejection: the tenant is at its queued
// -scenario or concurrent-job quota. The HTTP layer maps it to 429 with a
// Retry-After hint; admitting-and-queueing instead would let one tenant
// convert its quota violation into everyone's queue latency.
var ErrQuotaExceeded = errors.New("service: tenant quota exceeded")

// ErrUnknownTenant rejects a request whose API key matches no configured
// tenant (or carries none) on a node with a tenant config. Mapped to 401.
var ErrUnknownTenant = errors.New("service: unknown or missing tenant key")

// TenantConfig declares one admission principal (ringsimd -tenants).
type TenantConfig struct {
	// Name identifies the tenant in job statuses, /statsz and metric
	// labels. Required, unique, and never the reserved AnonymousTenant.
	Name string `json:"name"`
	// Key is the API key requests authenticate with ("Authorization:
	// Bearer <key>" or dynring.TenantHeader). Required and unique.
	Key string `json:"key"`
	// Weight is the tenant's WDRR share relative to other tenants under
	// contention (a weight-3 tenant is served 3 tasks for every 1 of a
	// weight-1 tenant). Non-positive means 1.
	Weight int `json:"weight"`
	// MaxQueued bounds the tenant's undispatched scenarios across all its
	// jobs; a submission that would exceed it is rejected with 429.
	// 0 means unlimited.
	MaxQueued int `json:"max_queued"`
	// MaxConcurrent bounds the tenant's running jobs; 0 means unlimited.
	MaxConcurrent int `json:"max_concurrent"`
}

// ParseTenants parses the -tenants flag value: either "@path" naming a
// JSON file holding a []TenantConfig, or an inline comma-separated list of
// name:key:weight[:maxQueued[:maxConcurrent]] entries, e.g.
//
//	alice:sk-alice:3:500:8,bob:sk-bob:1
//
// An empty value means no tenants (the anonymous default). Whitespace
// around the whole value, around each entry and around each number is
// ignored. An inline name may not start with '@', so a value is the file
// form exactly when it starts with '@'.
func ParseTenants(v string) ([]TenantConfig, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	var tenants []TenantConfig
	if strings.HasPrefix(v, "@") {
		raw, err := os.ReadFile(strings.TrimPrefix(v, "@"))
		if err != nil {
			return nil, fmt.Errorf("tenants file: %w", err)
		}
		if err := json.Unmarshal(raw, &tenants); err != nil {
			return nil, fmt.Errorf("tenants file %s: %w", strings.TrimPrefix(v, "@"), err)
		}
	} else {
		for _, entry := range strings.Split(v, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			tc, err := parseInlineTenant(entry)
			if err != nil {
				return nil, err
			}
			tenants = append(tenants, tc)
		}
	}
	if err := ValidateTenants(tenants); err != nil {
		return nil, err
	}
	return tenants, nil
}

// parseInlineTenant parses one name:key:weight[:maxQueued[:maxConcurrent]]
// entry. Each number must be a whole decimal integer: "3x", "3.5" and
// "0x10" are errors, not 3, 3 and 0.
func parseInlineTenant(entry string) (TenantConfig, error) {
	parts := strings.Split(entry, ":")
	if len(parts) < 2 || len(parts) > 5 {
		return TenantConfig{}, fmt.Errorf("tenant %q: want name:key:weight[:maxQueued[:maxConcurrent]]", entry)
	}
	if strings.HasPrefix(parts[0], "@") {
		return TenantConfig{}, fmt.Errorf("tenant %q: an inline name may not start with '@'", entry)
	}
	tc := TenantConfig{Name: parts[0], Key: parts[1]}
	ints := []*int{&tc.Weight, &tc.MaxQueued, &tc.MaxConcurrent}
	for i, p := range parts[2:] {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return TenantConfig{}, fmt.Errorf("tenant %q: field %d: %w", entry, i+3, err)
		}
		*ints[i] = n
	}
	return tc, nil
}

// ValidateTenants checks a tenant set for the invariants admission relies
// on: non-empty unique names and keys, no negative bounds, and the
// reserved anonymous name untouched.
func ValidateTenants(tenants []TenantConfig) error {
	names := make(map[string]bool, len(tenants))
	keys := make(map[string]bool, len(tenants))
	for _, tc := range tenants {
		switch {
		case tc.Name == "":
			return fmt.Errorf("tenant with key %q has no name", tc.Key)
		case tc.Name == AnonymousTenant:
			return fmt.Errorf("tenant name %q is reserved", AnonymousTenant)
		case tc.Key == "":
			return fmt.Errorf("tenant %q has no key", tc.Name)
		case names[tc.Name]:
			return fmt.Errorf("duplicate tenant name %q", tc.Name)
		case keys[tc.Key]:
			return fmt.Errorf("tenant %q reuses another tenant's key", tc.Name)
		case tc.MaxQueued < 0 || tc.MaxConcurrent < 0:
			return fmt.Errorf("tenant %q has a negative quota", tc.Name)
		}
		names[tc.Name] = true
		keys[tc.Key] = true
	}
	return nil
}

// tenantState is one tenant's live admission accounting. Counters are
// atomics because they are bumped from paths that must not take m.mu
// (job onSettle callbacks) and read by render-time metric callbacks.
type tenantState struct {
	cfg TenantConfig

	running       atomic.Int64 // jobs admitted and not yet settled
	admitted      atomic.Uint64
	rejectedQueue atomic.Uint64 // 429s against MaxQueued
	rejectedJobs  atomic.Uint64 // 429s against MaxConcurrent
	served        atomic.Uint64 // tasks dispatched by the scheduler
	runRequests   atomic.Uint64 // /v1/run executions accounted here
}

// ResolveTenant maps a request to a tenant name. With no tenant config
// every request is the anonymous tenant and credentials are ignored; with
// one, the key from "Authorization: Bearer <key>" (preferred) or
// dynring.TenantHeader must match a configured tenant or the request is
// rejected with ErrUnknownTenant.
func (m *Manager) ResolveTenant(r *http.Request) (string, error) {
	if len(m.byKey) == 0 {
		return AnonymousTenant, nil
	}
	key := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	key = strings.TrimSpace(key)
	if key == "" {
		key = strings.TrimSpace(r.Header.Get(dynring.TenantHeader))
	}
	if ts, ok := m.byKey[key]; ok && key != "" {
		return ts.cfg.Name, nil
	}
	m.unauthorized.Add(1)
	return "", ErrUnknownTenant
}

// TenantKey returns the API key of a tenant this node has configured, or
// "" (anonymous, or unknown). The cluster proxy path uses it to forward
// the originating tenant's identity on /v1/run hops.
func (m *Manager) TenantKey(name string) string {
	if ts, ok := m.tenants[name]; ok {
		return ts.cfg.Key
	}
	return ""
}

// countRunRequest accounts one POST /v1/run execution to tenant (the
// proxy path's owner-side attribution).
func (m *Manager) countRunRequest(tenant string) {
	if ts, ok := m.tenants[tenant]; ok {
		ts.runRequests.Add(1)
	}
}

// admitLocked enforces a tenant's quotas against the live scheduler
// backlog and running-job count for a submission of total scenarios.
// Callers hold m.mu. The returned error wraps ErrQuotaExceeded with the
// specific bound for the 429 body.
func (m *Manager) admitLocked(ts *tenantState, total int) error {
	if mc := ts.cfg.MaxConcurrent; mc > 0 && int(ts.running.Load()) >= mc {
		ts.rejectedJobs.Add(1)
		return fmt.Errorf("%w: tenant %q at %d concurrent jobs", ErrQuotaExceeded, ts.cfg.Name, mc)
	}
	if mq := ts.cfg.MaxQueued; mq > 0 && m.sched.Backlog(ts.cfg.Name)+total > mq {
		ts.rejectedQueue.Add(1)
		return fmt.Errorf("%w: tenant %q would exceed %d queued scenarios", ErrQuotaExceeded, ts.cfg.Name, mq)
	}
	return nil
}

// RetryAfter is the backoff hint served with 429 quota rejections. Quota
// headroom frees up as fast as scenarios execute, so the hint is a
// constant small delay rather than a queue-model estimate.
const RetryAfter = 1 * time.Second
