package service

import (
	"sync/atomic"

	"dynring"
	"dynring/internal/rescache"
)

// Cache is the service's result store, layered in two tiers that share one
// correctness contract (equal fingerprints imply identical Results):
//
//   - a bounded in-memory LRU (internal/rescache.Cache, the same core the
//     in-process sweep memo uses) serving the hot set, and
//   - an optional durable content-addressed tier (internal/rescache.Disk,
//     ringsimd -data): one file per fingerprint, written asynchronously
//     behind the LRU but readable from the moment Put returns, read on
//     LRU misses and warm-started into the LRU on boot — so identical
//     grids survive restarts with zero re-executions, and with the memory
//     tier off (-cache 0) a repeat is still served rather than executed.
//
// A Get falls through the tiers in order and promotes a disk hit back into
// the LRU; a Put lands in both. Eviction from the LRU never touches the
// durable tier, which is what makes the layering safe: the memory tier is
// a working set, the disk tier is the archive. Only successful Results are
// stored (the job manager never caches failures: the one nondeterministic
// failure mode, cancellation, must not poison later runs). Safe for
// concurrent use.
type Cache struct {
	c    *rescache.Cache[dynring.Result]
	disk *rescache.Disk[dynring.Result]

	// promotions counts disk hits promoted back into the memory tier; it is
	// the tier-interaction signal /metrics exposes (a high promotion rate
	// means the working set no longer fits the LRU).
	promotions atomic.Uint64
}

// hold pins fps in the memory tier until each is released as many times
// (see rescache.Cache.Hold). In cluster mode the manager holds what its
// running jobs still wait for and what it executed but has not yet pushed
// to the replicas, so a result that lands early (served to a peer's batch,
// pushed by a replica) is still resident when the row that wants it comes
// round, however far the cluster's coordinators drift apart.
func (c *Cache) hold(fps ...string) { c.c.Hold(fps...) }

// release drops one pin hold placed on fp.
func (c *Cache) release(fp string) { c.c.Release(fp) }

// NewCache returns a memory-only cache bounded to capacity entries. A
// non-positive capacity disables the memory tier: every Get misses
// (without counting) and Put is a no-op.
func NewCache(capacity int) *Cache {
	return &Cache{c: rescache.New(capacity, dynring.Result.Clone)}
}

// NewTieredCache returns a cache with the durable tier rooted at diskDir
// (creating it if needed). Existing entries are scanned once: well-formed
// ones are warm-started into the memory tier (the LRU's own eviction
// bounds how many stay resident), corrupt or truncated ones are logged
// through logf and skipped, and leftover temp files from an interrupted
// writer are removed. With an empty diskDir this is NewCache.
func NewTieredCache(capacity int, diskDir string, logf func(format string, args ...any)) (*Cache, error) {
	c := NewCache(capacity)
	if diskDir == "" {
		return c, nil
	}
	disk, err := rescache.OpenDisk[dynring.Result](diskDir, logf, func(key string, res dynring.Result) {
		c.c.Put(key, res)
	})
	if err != nil {
		return nil, err
	}
	c.disk = disk
	return c, nil
}

// Get returns a private copy of the cached Result for key, trying the
// memory tier first and falling through to the durable tier; a disk hit is
// promoted back into the LRU. Callers own the returned value outright;
// mutating it cannot affect the cache. On a disabled memory tier
// (capacity 0) the memory probe short-circuits without touching the
// hit/miss counters — "caching off" must not masquerade as a 0% hit rate
// in /statsz.
func (c *Cache) Get(key string) (dynring.Result, bool) {
	if res, ok := c.c.Get(key); ok {
		return res, true
	}
	if c.disk == nil {
		return dynring.Result{}, false
	}
	res, ok := c.disk.Get(key)
	if !ok {
		return dynring.Result{}, false
	}
	c.c.Put(key, res)
	c.promotions.Add(1)
	return res.Clone(), true
}

// Contains reports whether key is resident in the memory tier, without
// counting a hit/miss or refreshing recency. The proxy path uses it
// before a Get to settle queued rows whose result arrived while they
// waited (hops.settleCachedLocked): the probe costs no disk IO and a
// miss must not distort the hit-rate statistics or the LRU order. A
// disk-only entry reports false.
func (c *Cache) Contains(key string) bool { return c.c.Contains(key) }

// Promotions counts disk hits promoted into the memory tier since startup.
func (c *Cache) Promotions() uint64 { return c.promotions.Load() }

// Put stores a private copy of res under key in the memory tier and in the
// durable tier, which serves it at once and writes it to disk behind the
// caller. Storing an existing key refreshes its recency (the value is
// identical by the fingerprint contract).
func (c *Cache) Put(key string, res dynring.Result) {
	c.c.Put(key, res)
	if c.disk != nil {
		c.disk.Put(key, res)
	}
}

// DurableKeys snapshots the keys indexed by the durable tier (nil without
// one), those whose disk write is still queued included. The anti-entropy
// pass exchanges these listings between replicas; a listed key is a claim
// that Durable must still validate, and one that fails is evicted.
func (c *Cache) DurableKeys() []string {
	if c.disk == nil {
		return nil
	}
	return c.disk.Keys()
}

// Durable reads key from the durable tier only, re-validating the entry on
// the way out: a listed key is served whether or not its disk write has
// finished, and a corrupt or truncated envelope is evicted and reported
// absent, exactly as Get would treat it. Anti-entropy uses it on both
// sides — a serving replica can never hand out a corrupt envelope, and a
// pulling replica treats its own corrupt copy as missing (and thereby
// repairable).
func (c *Cache) Durable(key string) (dynring.Result, bool) {
	if c.disk == nil {
		return dynring.Result{}, false
	}
	return c.disk.Get(key)
}

// Close flushes every queued durable write — the ringsimd -drain
// guarantee — and stops the background writer. The cache stays readable.
func (c *Cache) Close() {
	if c.disk != nil {
		c.disk.Close()
	}
}

// Stats snapshots the memory-tier counters.
func (c *Cache) Stats() dynring.CacheStats {
	st := c.c.Stats()
	return dynring.CacheStats{
		Size:     st.Size,
		Capacity: st.Capacity,
		Hits:     st.Hits,
		Misses:   st.Misses,
	}
}

// DiskStats snapshots the durable tier, or nil when it is disabled.
func (c *Cache) DiskStats() *dynring.DiskTierStats {
	if c.disk == nil {
		return nil
	}
	st := c.disk.Stats()
	return &dynring.DiskTierStats{
		Entries:    st.Entries,
		Bytes:      st.Bytes,
		QueueDepth: st.QueueDepth,
		Hits:       st.Hits,
		Misses:     st.Misses,
		Skipped:    st.Skipped,
	}
}

// HitRatio is the combined hit ratio across both tiers: served-without-
// executing lookups over all lookups. Every lookup probes the memory tier,
// so its hit+miss count is the denominator and disk hits upgrade misses —
// unless the memory tier is off, which counts nothing: then every lookup
// reaches the disk tier, and its hits+misses are the denominator.
func (c *Cache) HitRatio() float64 {
	st := c.c.Stats()
	hits, total := st.Hits, st.Hits+st.Misses
	if c.disk != nil {
		ds := c.disk.Stats()
		hits += ds.Hits
		if st.Capacity == 0 {
			total = ds.Hits + ds.Misses
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
