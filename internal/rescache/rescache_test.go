package rescache

import (
	"fmt"
	"sync"
	"testing"
)

// val is a reference-carrying value type exercising the copy machinery.
type val struct {
	n  int
	xs []int
}

func copyVal(v val) val {
	if v.xs != nil {
		v.xs = append([]int(nil), v.xs...)
	}
	return v
}

func TestLRUEviction(t *testing.T) {
	c := New[val](2, copyVal)
	c.Put("a", val{n: 1})
	c.Put("b", val{n: 2})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", val{n: 3}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be retained", k)
		}
	}
	if st := c.Stats(); st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v, want size=2 capacity=2", st)
	}
}

func TestPutExistingRefreshesRecency(t *testing.T) {
	c := New[val](2, copyVal)
	c.Put("a", val{n: 1})
	c.Put("b", val{n: 2})
	c.Put("a", val{n: 1}) // refresh, not replace: b is now LRU
	c.Put("c", val{n: 3})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted after a's refresh")
	}
	if got, ok := c.Get("a"); !ok || got.n != 1 {
		t.Fatalf("a = %+v ok=%v", got, ok)
	}
}

func TestCopyIsolation(t *testing.T) {
	c := New[val](4, copyVal)
	orig := val{n: 1, xs: []int{10, 20}}
	c.Put("k", orig)
	orig.xs[0] = 99 // caller mutates after Put: cache must hold 10
	got1, _ := c.Get("k")
	if got1.xs[0] != 10 {
		t.Fatalf("Put did not copy: got %v", got1.xs)
	}
	got1.xs[1] = 77 // caller mutates a hit: cache must still hold 20
	got2, _ := c.Get("k")
	if got2.xs[1] != 20 {
		t.Fatalf("Get did not copy: got %v", got2.xs)
	}
}

func TestNilCopyStoresAsIs(t *testing.T) {
	c := New[int](2, nil)
	c.Put("k", 42)
	if got, ok := c.Get("k"); !ok || got != 42 {
		t.Fatalf("got %d ok=%v", got, ok)
	}
}

func TestDisabledCache(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		c := New[val](capacity, copyVal)
		c.Put("k", val{n: 1})
		if _, ok := c.Get("k"); ok {
			t.Fatal("disabled cache served a value")
		}
		st := c.Stats()
		if st.Hits != 0 || st.Misses != 0 || st.Size != 0 || st.Capacity != 0 {
			t.Fatalf("disabled cache counted: %+v", st)
		}
	}
}

func TestStatsCounts(t *testing.T) {
	c := New[val](2, copyVal)
	c.Put("a", val{n: 1})
	c.Get("a")
	c.Get("a")
	c.Get("nope")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
}

// TestConcurrentGetPutStats hammers Get, Put and Stats from concurrent
// goroutines. Under -race it proves the counters are read under the mutex
// (the regression this package's extraction fixed by construction); in all
// modes it checks the final counters add up.
func TestConcurrentGetPutStats(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
	)
	c := New[val](16, copyVal)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d", (w+i)%32)
				if v, ok := c.Get(key); ok {
					if v.xs[0] != 7 {
						t.Errorf("corrupted value %v", v.xs)
						return
					}
					v.xs[0] = -1 // mutate the private copy; must not poison
				} else {
					c.Put(key, val{n: i, xs: []int{7}})
				}
				if i%64 == 0 {
					st := c.Stats()
					if st.Size > 16 {
						t.Errorf("size %d exceeds capacity", st.Size)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*rounds)
	}
}

// TestCacheHoldRelease: a held entry — held before or after it is stored —
// survives any number of evictions and does not count against the
// capacity; releasing its last pin returns it as the most recently used
// entry, after which the LRU evicts as before.
func TestCacheHoldRelease(t *testing.T) {
	c := New[int](2, nil)
	c.Put("a", 1)
	c.Hold("a", "b", "b")
	c.Put("b", 2)
	for i := range 10 {
		c.Put(fmt.Sprint("x", i), i)
	}
	for _, k := range []string{"a", "b", "x8", "x9"} {
		if !c.Contains(k) {
			t.Fatalf("%s evicted; held entries and the 2 newest should stay", k)
		}
	}
	if st := c.Stats(); st.Size != 4 {
		t.Fatalf("size %d, want 2 held + capacity 2", st.Size)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(held b) = %d, %v", v, ok)
	}
	c.Release("a")
	c.Release("b") // b still holds one pin
	if !c.Contains("a") || c.Contains("x8") {
		t.Fatal("released a should displace the LRU entry x8")
	}
	c.Put("y", 0)
	if c.Contains("x9") || !c.Contains("a") || !c.Contains("b") {
		t.Fatal("after release the LRU should evict x9 before a, and b stays held")
	}
	c.Release("b")
	c.Put("z", 0)
	c.Put("w", 0)
	if c.Contains("a") || c.Contains("b") {
		t.Fatal("released entries must be evictable again")
	}
}
