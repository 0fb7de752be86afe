package rescache

import (
	"context"
	"sync"
)

// Store is the result store a Group deduplicates executions in front of.
// Both *Cache and the service's tiered cache satisfy it. Get must serve
// the caller a private value; Put must keep its own.
type Store[V any] interface {
	Get(key string) (V, bool)
	Put(key string, val V)
}

// Group is the single execution primitive behind the sweep memo and the
// service's ExecuteLocal: a key is served from the store when present, and
// otherwise executed by exactly one caller (the leader) while every
// concurrent caller of the same key (the waiters) parks on its flight and
// replays a private copy of the leader's value. Waiters never re-read
// through the store, so deduplication holds whatever the store does with
// the value — a zero-capacity memory tier or an LRU eviction. Safe for
// concurrent use.
type Group[V any] struct {
	store   Store[V]
	copyVal func(V) V

	mu sync.Mutex
	// flights holds every key a leader currently owns. The flight is nil
	// until a second caller of the key needs something to wait on, so an
	// uncontended lookup allocates nothing.
	flights map[string]*flight[V]
	waiters int // callers parked on a flight, all keys
}

// flight is one leader's ownership of a key, as seen by its waiters.
type flight[V any] struct {
	done chan struct{} // closed when the leader settles
	val  V             // a private copy of the leader's value (valid when err == nil)
	err  error
}

// NewGroup returns a group in front of store. copyVal deep-copies a value;
// each waiter receives its own copy of the leader's value.
func NewGroup[V any](store Store[V], copyVal func(V) V) *Group[V] {
	return &Group[V]{store: store, copyVal: copyVal, flights: make(map[string]*flight[V])}
}

// Do returns the value for key, executing exec on a miss. shared reports
// the value was not produced by this call's exec: a store hit, or a copy
// of a concurrent leader's value.
//
// A caller first claims the key under the group lock, and only then probes
// the store, once. A leader stores its value before it releases the key
// under the same lock, so a caller that claims the key after a release
// finds the stored value, and one that comes before it waits for the
// leader — no caller can fall between the two and execute again. Each
// lookup counts exactly one hit or miss in the store's statistics; waiters
// count as neither. No lock is held while the store or exec runs.
//
// A failed execution is never stored. A waiter whose leader failed retries
// as leader while its own ctx is live (the leader's failure — typically
// its own cancellation — is not the waiter's), and returns ctx.Err() once
// its ctx is done.
func (g *Group[V]) Do(ctx context.Context, key string, exec func() (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		f, owned := g.flights[key]
		if !owned {
			g.flights[key] = nil
			g.mu.Unlock()
			break
		}
		if f == nil {
			f = &flight[V]{done: make(chan struct{})}
			g.flights[key] = f
		}
		g.waiters++
		g.mu.Unlock()
		select {
		case <-f.done:
			err = f.err
		case <-ctx.Done():
			err = ctx.Err()
		}
		g.mu.Lock()
		g.waiters--
		g.mu.Unlock()
		if err == nil {
			return g.copyVal(f.val), true, nil
		}
		if ctx.Err() != nil {
			return v, false, ctx.Err()
		}
	}

	v, shared = g.store.Get(key)
	if !shared {
		if v, err = exec(); err == nil {
			g.store.Put(key, v)
		}
	}
	g.mu.Lock()
	f := g.flights[key]
	delete(g.flights, key)
	g.mu.Unlock()
	if f != nil {
		if err == nil {
			// The flight keeps its own copy: the value returned below is
			// owned by this caller, which may mutate it before a parked
			// waiter gets scheduled and takes its copy.
			f.val = g.copyVal(v)
		}
		f.err = err
		close(f.done)
	}
	return v, shared, err
}

// waiting reports how many callers are parked on a flight.
func (g *Group[V]) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters
}
