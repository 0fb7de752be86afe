package rescache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// gval is a group test value with a reference field, so aliasing between
// callers (or between a caller and the store) is observable.
type gval struct {
	Key string `json:"key"`
	Seq []int  `json:"seq"`
}

func copyGval(v gval) gval {
	v.Seq = append([]int(nil), v.Seq...)
	return v
}

// tiered is a memory tier over an optional write-behind disk tier, the
// shape of the service's result cache: a Get falls through to disk and
// promotes, a Put lands in both.
type tiered struct {
	mem  *Cache[gval]
	disk *Disk[gval]
}

func (t tiered) Get(key string) (gval, bool) {
	if v, ok := t.mem.Get(key); ok {
		return v, true
	}
	if t.disk == nil {
		return gval{}, false
	}
	v, ok := t.disk.Get(key)
	if ok {
		t.mem.Put(key, v)
	}
	return v, ok
}

func (t tiered) Put(key string, v gval) {
	t.mem.Put(key, v)
	if t.disk != nil {
		t.disk.Put(key, v)
	}
}

// awaitWaiters spins (yielding, never sleeping) until n callers are parked
// on the group's flights.
func awaitWaiters[V any](g *Group[V], n int) {
	for g.waiting() != n {
		runtime.Gosched()
	}
}

// TestGroupExactlyOnceProperty crosses memory capacity {0, 1, large} with
// the disk tier off and on. For each store, N callers per key all overlap
// one in-flight execution of their key: each key's first execution blocks
// until every other caller has parked on a flight. Executions must equal
// the number of distinct keys, and every caller must receive a private
// value deep-equal to its key's leader's — waiters replay the leader's
// copy, so neither a zero-capacity memory tier nor an eviction by another
// key can cause a re-execution.
func TestGroupExactlyOnceProperty(t *testing.T) {
	const keys, callers = 4, 8
	for _, capacity := range []int{0, 1, 1024} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap=%d/disk=%v", capacity, disk), func(t *testing.T) {
				store := tiered{mem: New(capacity, copyGval)}
				if disk {
					d, err := OpenDisk[gval](t.TempDir(), nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer d.Close()
					store.disk = d
				}
				g := NewGroup(store, copyGval)

				var executions [keys]atomic.Int32
				type out struct {
					v      gval
					shared bool
					err    error
				}
				var results [keys][callers]out
				release := make(chan struct{})
				var wg sync.WaitGroup
				for k := range keys {
					key := fmt.Sprintf("k%d", k)
					for c := range callers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							v, shared, err := g.Do(context.Background(), key, func() (gval, error) {
								n := int(executions[k].Add(1))
								if n == 1 {
									<-release
								}
								return gval{Key: key, Seq: []int{k, n}}, nil
							})
							results[k][c] = out{v, shared, err}
						}()
					}
				}
				awaitWaiters(g, keys*(callers-1))
				close(release)
				wg.Wait()

				total := 0
				for k := range keys {
					n := int(executions[k].Load())
					total += n
					if n != 1 {
						t.Errorf("key k%d executed %d times, want 1", k, n)
					}
					var leader *out
					for c := range callers {
						r := &results[k][c]
						if r.err != nil {
							t.Fatalf("key k%d caller %d: %v", k, c, r.err)
						}
						if !r.shared {
							if leader != nil {
								t.Fatalf("key k%d has two leaders", k)
							}
							leader = r
						}
					}
					if leader == nil {
						t.Fatalf("key k%d has no leader", k)
					}
					for c := range callers {
						r := &results[k][c]
						if !reflect.DeepEqual(r.v, leader.v) {
							t.Errorf("key k%d caller %d got %+v, leader %+v", k, c, r.v, leader.v)
						}
						if r != leader && &r.v.Seq[0] == &leader.v.Seq[0] {
							t.Errorf("key k%d caller %d aliases the leader's value", k, c)
						}
					}
				}
				if total != keys {
					t.Fatalf("executions = %d, want %d (one per distinct key)", total, keys)
				}
				if g.waiting() != 0 {
					t.Fatalf("%d waiters left parked", g.waiting())
				}
			})
		}
	}
}

// TestGroupSequentialRepeat crosses the same capacity × disk matrix as
// TestGroupExactlyOnceProperty with callers that never overlap: each key
// is asked for twice in a row, the second time after the first returned.
// No flight is left to wait on, so only the store can serve the repeat,
// and it must whenever it can hold a value at all — a disk tier serves a
// key from the moment its Put returns, write still queued or not. With
// neither tier, every repeat executes.
func TestGroupSequentialRepeat(t *testing.T) {
	const keys = 400
	for _, capacity := range []int{0, 1, 1024} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap=%d/disk=%v", capacity, disk), func(t *testing.T) {
				store := tiered{mem: New(capacity, copyGval)}
				if disk {
					d, err := OpenDisk[gval](t.TempDir(), nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer d.Close()
					store.disk = d
				}
				g := NewGroup(store, copyGval)
				executions := 0
				for k := range keys {
					key := fmt.Sprintf("%032x", k)
					for range 2 {
						v, _, err := g.Do(context.Background(), key, func() (gval, error) {
							executions++
							return gval{Key: key, Seq: []int{k}}, nil
						})
						if err != nil || v.Key != key || v.Seq[0] != k {
							t.Fatalf("key %s = %+v, %v", key, v, err)
						}
					}
				}
				want := keys
				if capacity == 0 && !disk {
					want = 2 * keys
				}
				if executions != want {
					t.Fatalf("executions = %d, want %d", executions, want)
				}
			})
		}
	}
}

// TestGroupFailedLeader: a failed execution is never stored; a parked
// waiter whose ctx is done returns ctx.Err(), and a live waiter retries as
// leader.
func TestGroupFailedLeader(t *testing.T) {
	c := New(4, copyGval)
	g := NewGroup(c, copyGval)
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	var executions atomic.Int32
	exec := func() (gval, error) {
		if executions.Add(1) == 1 {
			awaitWaiters(g, 2)
			cancel()
			awaitWaiters(g, 1) // the cancelled waiter has left
			return gval{}, boom
		}
		return gval{Key: "k", Seq: []int{2}}, nil
	}

	var wg sync.WaitGroup
	var leaderErr, cancelledErr, liveErr error
	var live gval
	var liveShared bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = g.Do(context.Background(), "k", exec)
	}()
	for executions.Load() == 0 {
		runtime.Gosched()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, cancelledErr = g.Do(cancelled, "k", exec)
	}()
	go func() {
		defer wg.Done()
		live, liveShared, liveErr = g.Do(context.Background(), "k", exec)
	}()
	wg.Wait()

	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader err = %v, want boom", leaderErr)
	}
	if !errors.Is(cancelledErr, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", cancelledErr)
	}
	if liveErr != nil || liveShared || live.Seq[0] != 2 {
		t.Fatalf("live waiter = %+v, shared=%v, err=%v; want its own execution", live, liveShared, liveErr)
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (failed leader + retrying waiter)", got)
	}
	if v, ok := c.Get("k"); !ok || v.Seq[0] != 2 {
		t.Fatalf("store holds %+v, %v; want only the successful value", v, ok)
	}
}
