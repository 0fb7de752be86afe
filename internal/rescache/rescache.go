package rescache

import "sync"

// Cache is a bounded, LRU-evicting map from string keys to values of type V.
// It is safe for concurrent use; every counter — including the hit/miss
// statistics — is read and written under the same mutex, so Stats snapshots
// are always internally consistent (a Get observed by Stats has either fully
// counted or not at all).
//
// It is the shared result-cache core behind the ringsimd service cache
// (fingerprint → Result, see internal/service) and the in-process sweep
// memo (memo key → Result, see dynring.Memo). Both key by a content hash
// whose contract guarantees key equality implies value identity, which is
// what makes "serve the cached copy" correct.
//
// The LRU order is a ring linked through the entries themselves, and a Put
// into a full cache reuses the node it evicts: at capacity, a Put allocates
// only what copyVal allocates. Held entries (see Hold) sit outside the
// ring, so they are never evicted and their nodes never reused.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	copyVal  func(V) V
	// root anchors the LRU ring of resident unheld entries: root.next is
	// the most recently used, root.prev the least.
	root  entry[V]
	items map[string]*entry[V]
	// holds counts Hold pins by key, resident or not; held keeps the
	// resident held entries, outside the ring and the capacity (see Hold).
	holds  map[string]int
	held   map[string]*entry[V]
	hits   uint64
	misses uint64
}

// entry is one LRU node. The links live in the node, so a Put into a full
// cache reuses the node it evicts instead of allocating one.
type entry[V any] struct {
	prev, next *entry[V]
	key        string
	val        V
}

// New returns a cache bounded to capacity entries. A non-positive capacity
// disables caching: every Get returns immediately (without counting a miss)
// and Put is a no-op.
//
// copyVal, when non-nil, is applied to every value on its way in (Put) and
// out (Get), so the cache stores and serves private copies. Pass a deep-copy
// function whenever V carries reference fields (slices, maps): a value
// aliased between the cache and a caller would let any caller that mutates
// its apparently-owned value silently poison every future hit of that key.
// A nil copyVal stores and serves values as-is, which is only safe for
// value-semantics types.
func New[V any](capacity int, copyVal func(V) V) *Cache[V] {
	c := &Cache[V]{
		capacity: max(capacity, 0),
		copyVal:  copyVal,
		items:    make(map[string]*entry[V]),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// copy applies the cache's copy function, if any.
func (c *Cache[V]) copy(v V) V {
	if c.copyVal == nil {
		return v
	}
	return c.copyVal(v)
}

// unlink takes e out of the LRU ring.
func (e *entry[V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry of the ring.
func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns a private copy of the cached value for key, marking it most
// recently used. Callers own the returned value outright. On a disabled
// cache (capacity 0) Get returns immediately without touching the hit/miss
// counters — "caching off" must not masquerade as a 0% hit rate.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c.capacity == 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.hits++
		e.unlink()
		c.pushFront(e)
		return c.copy(e.val), true
	}
	if e, ok := c.held[key]; ok {
		c.hits++
		return c.copy(e.val), true
	}
	c.misses++
	return zero, false
}

// Contains reports whether key is resident, without counting a hit or a
// miss and without refreshing recency. It is a pure membership probe for
// callers (the service's proxy path, before settling a queued row from
// cache) that need "would a Get hit?" but must not distort the cache's
// usage statistics or eviction order.
func (c *Cache[V]) Contains(key string) bool {
	if c.capacity == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	if !ok {
		_, ok = c.held[key]
	}
	return ok
}

// Put stores a private copy of val under key, evicting the least recently
// used entry when the cache is full and reusing its node. Storing an
// existing key refreshes its recency without replacing the value (by the
// key contract the value is identical).
func (c *Cache[V]) Put(key string, val V) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.unlink()
		c.pushFront(e)
		return
	}
	if _, ok := c.held[key]; ok {
		return
	}
	if c.holds[key] > 0 {
		c.held[key] = &entry[V]{key: key, val: c.copy(val)}
		return
	}
	e := c.evictLocked()
	if e == nil {
		e = new(entry[V])
	}
	e.key, e.val = key, c.copy(val)
	c.insertLocked(e)
}

// evictLocked removes the least recently used entry when the cache is full
// and returns its node for reuse; it returns nil when there is room.
func (c *Cache[V]) evictLocked() *entry[V] {
	if len(c.items) < c.capacity {
		return nil
	}
	e := c.root.prev
	e.unlink()
	delete(c.items, e.key)
	return e
}

// insertLocked makes e the most recently used entry.
func (c *Cache[V]) insertLocked(e *entry[V]) {
	c.items[e.key] = e
	c.pushFront(e)
}

// Hold pins each key until a matching Release. While a key holds a pin,
// its entry — resident now or stored later — stays out of the LRU order:
// it is never evicted and does not count against the capacity, so held
// entries can take the cache past it. Releasing the last pin returns the
// entry to the LRU as its most recently used one. No-op on a disabled
// cache.
func (c *Cache[V]) Hold(keys ...string) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holds == nil {
		c.holds = make(map[string]int)
		c.held = make(map[string]*entry[V])
	}
	for _, key := range keys {
		c.holds[key]++
		if e, ok := c.items[key]; ok {
			e.unlink()
			delete(c.items, key)
			c.held[key] = e
		}
	}
}

// Release drops one pin Hold placed on key.
func (c *Cache[V]) Release(key string) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holds[key]--; c.holds[key] > 0 {
		return
	}
	delete(c.holds, key)
	if e, ok := c.held[key]; ok {
		delete(c.held, key)
		c.evictLocked()
		c.insertLocked(e)
	}
}

// Stats is a consistent snapshot of the cache counters.
type Stats struct {
	// Size is the current entry count; Capacity the bound (0: disabled).
	Size     int
	Capacity int
	// Hits and Misses count Get outcomes since construction. A disabled
	// cache counts neither.
	Hits   uint64
	Misses uint64
}

// Stats snapshots the counters under the cache mutex: the returned values
// are mutually consistent even under concurrent Get/Put traffic.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Size:     len(c.items) + len(c.held),
		Capacity: c.capacity,
		Hits:     c.hits,
		Misses:   c.misses,
	}
}
