package rescache

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refLRU is the reference model of Cache's contract, on container/list:
// front is the most recently used resident unheld entry, and held entries
// sit outside the list and the capacity.
type refLRU struct {
	capacity     int
	ll           *list.List // of *refEntry
	items        map[string]*list.Element
	holds        map[string]int
	held         map[string]int
	hits, misses uint64
}

type refEntry struct {
	key string
	n   int
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(), items: map[string]*list.Element{},
		holds: map[string]int{}, held: map[string]int{}}
}

func (r *refLRU) get(key string) (int, bool) {
	if r.capacity == 0 {
		return 0, false
	}
	if el, ok := r.items[key]; ok {
		r.hits++
		r.ll.MoveToFront(el)
		return el.Value.(*refEntry).n, true
	}
	if n, ok := r.held[key]; ok {
		r.hits++
		return n, true
	}
	r.misses++
	return 0, false
}

func (r *refLRU) contains(key string) bool {
	_, resident := r.items[key]
	_, held := r.held[key]
	return resident || held
}

func (r *refLRU) put(key string, n int) {
	if r.capacity == 0 {
		return
	}
	if el, ok := r.items[key]; ok {
		r.ll.MoveToFront(el)
		return
	}
	if _, ok := r.held[key]; ok {
		return
	}
	if r.holds[key] > 0 {
		r.held[key] = n
		return
	}
	r.insert(key, n)
}

func (r *refLRU) insert(key string, n int) {
	r.items[key] = r.ll.PushFront(&refEntry{key, n})
	if r.ll.Len() > r.capacity {
		last := r.ll.Back()
		r.ll.Remove(last)
		delete(r.items, last.Value.(*refEntry).key)
	}
}

func (r *refLRU) hold(key string) {
	if r.capacity == 0 {
		return
	}
	r.holds[key]++
	if el, ok := r.items[key]; ok {
		r.ll.Remove(el)
		delete(r.items, key)
		r.held[key] = el.Value.(*refEntry).n
	}
}

func (r *refLRU) release(key string) {
	if r.capacity == 0 {
		return
	}
	if r.holds[key]--; r.holds[key] > 0 {
		return
	}
	delete(r.holds, key)
	if n, ok := r.held[key]; ok {
		delete(r.held, key)
		r.insert(key, n)
	}
}

// order lists the model's resident unheld keys, most recently used first.
func (r *refLRU) order() []string {
	var keys []string
	for el := r.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*refEntry).key)
	}
	return keys
}

// order lists c's resident unheld keys, most recently used first, walking
// the ring both ways to check its links.
func (c *Cache[V]) order(t *testing.T) []string {
	t.Helper()
	var fwd, back []string
	for e := c.root.next; e != &c.root; e = e.next {
		if e.next.prev != e || c.items[e.key] != e {
			t.Fatalf("ring node %q is mislinked or not indexed", e.key)
		}
		fwd = append(fwd, e.key)
	}
	for e := c.root.prev; e != &c.root; e = e.prev {
		back = append(back, e.key)
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || len(fwd) != len(c.items) {
		t.Fatalf("ring forward %v, backward %v, %d indexed", fwd, back, len(c.items))
	}
	return fwd
}

// TestCacheMatchesReferenceLRU runs seeded random Put, Get, Contains, Hold
// and Release sequences against Cache and the container/list model above,
// and after every operation checks that both agree on what is resident,
// the LRU order (and so the eviction order), every hit and miss, and
// Stats. A held entry's node must stay the same node with the same key and
// value until its last Release: it is never evicted and never reused.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, capacity := range []int{0, 1, 2, 5} {
		for seed := range uint64(200) {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			c, ref := New[val](capacity, copyVal), newRefLRU(capacity)
			pinned := map[string]*entry[val]{} // held nodes as first seen
			var trail []string
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("capacity %d seed %d after %v: %s", capacity, seed, trail, fmt.Sprintf(format, args...))
			}
			for range 300 {
				key := keys[rng.IntN(len(keys))]
				switch op := rng.IntN(10); {
				case op < 4:
					n := rng.IntN(1000)
					trail = append(trail, fmt.Sprintf("put(%s,%d)", key, n))
					c.Put(key, val{n: n, xs: []int{n}})
					ref.put(key, n)
				case op < 7:
					trail = append(trail, "get("+key+")")
					got, ok := c.Get(key)
					want, wantOK := ref.get(key)
					if ok != wantOK || got.n != want || (ok && (len(got.xs) != 1 || got.xs[0] != got.n)) {
						fail("Get(%s) = %+v, %v; want %d, %v", key, got, ok, want, wantOK)
					}
				case op < 8:
					trail = append(trail, "contains("+key+")")
					if got, want := c.Contains(key), ref.contains(key); got != want {
						fail("Contains(%s) = %v, want %v", key, got, want)
					}
				case op < 9:
					trail = append(trail, "hold("+key+")")
					c.Hold(key)
					ref.hold(key)
				default:
					// Release only what is pinned: a Release without a
					// Hold is outside the contract.
					var pins []string
					for _, k := range keys {
						if ref.holds[k] > 0 {
							pins = append(pins, k)
						}
					}
					if len(pins) == 0 {
						continue
					}
					key = pins[rng.IntN(len(pins))]
					trail = append(trail, "release("+key+")")
					c.Release(key)
					ref.release(key)
				}
				if got, want := c.order(t), ref.order(); !slices.Equal(got, want) {
					fail("LRU order %v, want %v", got, want)
				}
				for k, n := range ref.held {
					e := c.held[k]
					if e == nil || e.key != k || e.val.n != n || e.prev != nil || e.next != nil {
						fail("held %s is %+v, want value %d outside the ring", k, e, n)
					}
					if p, ok := pinned[k]; ok && p != e {
						fail("held %s moved to another node", k)
					}
					pinned[k] = e
				}
				for k := range pinned {
					if _, ok := ref.held[k]; !ok {
						delete(pinned, k)
					}
				}
				if len(c.held) != len(ref.held) {
					fail("%d held entries, want %d", len(c.held), len(ref.held))
				}
				st := c.Stats()
				if st.Size != ref.ll.Len()+len(ref.held) || st.Hits != ref.hits || st.Misses != ref.misses || st.Capacity != capacity {
					fail("stats %+v, want size %d hits %d misses %d", st, ref.ll.Len()+len(ref.held), ref.hits, ref.misses)
				}
			}
		}
	}
}

var sink val

// TestCachePutAtCapacityAllocs: a Put that evicts reuses the evicted
// entry's node, so at capacity it allocates only what copyVal allocates.
func TestCachePutAtCapacityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const capacity = 64
	keys := make([]string, 3*capacity)
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
	}
	c := New[val](capacity, copyVal)
	v := val{n: 1, xs: []int{1, 2}}
	for _, k := range keys[:capacity] {
		c.Put(k, v)
	}
	next := capacity
	put := testing.AllocsPerRun(1000, func() {
		c.Put(keys[next%len(keys)], v)
		next++
	})
	copies := testing.AllocsPerRun(1000, func() { sink = copyVal(v) })
	if st := c.Stats(); st.Size != capacity {
		t.Fatalf("size %d, want %d", st.Size, capacity)
	}
	if put > copies {
		t.Fatalf("a Put into a full cache allocated %.2f times, copyVal %.2f", put, copies)
	}
}
