package dynring

import (
	"strings"

	"dynring/internal/rescache"
)

// Memo is an in-process, fingerprint-keyed result memo for sweep execution:
// scenarios with identical memo keys execute once and replay the cached
// Result. It is the local counterpart of the ringsimd service cache, built
// on the same internal/rescache LRU, and it is safe for concurrent use — a
// single Memo is shared by all workers of a Sweep (set Sweep.Memo), or by a
// caller-held Runner across repeated sweeps (set Runner.Memo).
//
// Correctness rests on the same invariant as the service cache: equal keys
// imply identical Results. The memo key is the scenario's canonical
// Fingerprint, coarsened in exactly one provably sound way: when the
// resolved scenario's Seed cannot reach execution — no adversary at all, or
// an adversary whose canonical label kind names a factory that ignores its
// seed (greedy, capped, recurrent, the proof strategies, ...) — the Seed is
// normalized to zero first. Deterministic adversaries swept over a seed
// axis therefore collapse to one execution per cell. Seed-consuming kinds
// (random, tinterval, any act() activation wrapper) and unknown custom
// label kinds keep the Seed in the key and never collapse.
//
// Concurrent misses of one key are deduplicated (single-flight, through
// the same internal/rescache.Group the service's ExecuteLocal uses): the
// first worker executes, the rest wait and replay a copy of its Result, so
// a seed axis fanned out across workers still executes once — even with
// storage disabled. Failed executions are never stored — waiters observe
// the leader's failure only when their own context is also done; otherwise
// they retry as leaders, so a cancelled sweep cannot poison a later one.
type Memo struct {
	cache *rescache.Cache[Result]
	group *rescache.Group[Result]
}

// NewMemo returns a memo bounded to capacity entries (LRU-evicted). A
// non-positive capacity disables storage — only concurrent duplicates are
// deduplicated — which makes Memo a no-op rather than an error, mirroring
// the service cache.
func NewMemo(capacity int) *Memo {
	cache := rescache.New(capacity, Result.Clone)
	return &Memo{cache: cache, group: rescache.NewGroup(cache, Result.Clone)}
}

// Stats snapshots the memo's cache counters. Single-flight waiters count as
// neither hits nor misses (only cache lookups are counted), so Hits+Misses
// equals the number of Get probes, and Misses bounds the number of actual
// executions from above.
func (m *Memo) Stats() CacheStats {
	st := m.cache.Stats()
	return CacheStats{Size: st.Size, Capacity: st.Capacity, Hits: st.Hits, Misses: st.Misses}
}

// seedInsensitiveAdversaryKinds names the canonical adversary label kinds
// whose factories provably ignore the scenario Seed (they are built with
// Fixed or an explicitly seed-dropping constructor). A scenario using one of
// them produces the same Result for every seed, so the memo may normalize
// the seed out of its key. Seeded kinds — random, tinterval — and anything
// wrapped in act(...) are absent by design, as is every unknown custom kind:
// when in doubt the seed stays in the key.
//
// The list is part of the label contract (see Scenario.Fingerprint): a
// custom factory labelled with one of these kinds must behave like that
// kind, including ignoring its seed.
var seedInsensitiveAdversaryKinds = map[string]bool{
	"none":       true,
	"static":     true, // sweep expansion's label for scenarios without dynamics
	"greedy":     true,
	"frontier":   true,
	"pin":        true,
	"persistent": true,
	"prevent":    true,
	"capped":     true,
	"recurrent":  true,
}

// seedInsensitive reports whether the scenario's Result provably does not
// depend on Seed: the Seed's only consumer is the adversary factory, so a
// nil factory — or a canonical label kind known to drop the seed — makes
// the scenario seed-insensitive.
func (s Scenario) seedInsensitive() bool {
	if s.NewAdversary == nil {
		return true
	}
	if strings.HasPrefix(s.AdversaryLabel, "act(") {
		return false
	}
	return seedInsensitiveAdversaryKinds[adversaryLabelKind(s.AdversaryLabel)]
}

// memoKey returns the scenario's memo-cache key: its canonical Fingerprint,
// with the Seed normalized to zero first when the scenario is provably
// seed-insensitive. The coarsening is sound — two scenarios with equal memo
// keys produce identical Results — because the normalized field cannot
// reach execution. Errors are exactly Fingerprint's, including
// ErrNotFingerprintable for scenarios without a canonical encoding.
func (s Scenario) memoKey() (string, error) {
	if s.seedInsensitive() {
		s.Seed = 0
	}
	return s.Fingerprint()
}
