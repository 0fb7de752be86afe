package sched

import (
	"math/rand"
	"testing"
)

// drain pulls n tasks, failing if the scheduler runs dry early.
func drain(t *testing.T, s *Scheduler[int], n int) []Task[int] {
	t.Helper()
	out := make([]Task[int], 0, n)
	for i := 0; i < n; i++ {
		tk, ok := s.Next()
		if !ok {
			t.Fatalf("scheduler dry after %d of %d tasks", i, n)
		}
		out = append(out, tk)
	}
	return out
}

// TestSingleTenantRoundRobin pins the anonymous-tenant default to the seed
// scheduler's exact interleaving: one task from each queued job in turn,
// indices advancing per job.
func TestSingleTenantRoundRobin(t *testing.T) {
	s := New[int]()
	s.AddTenant("anonymous", 1)
	s.Enqueue("anonymous", 1, 3)
	s.Enqueue("anonymous", 2, 3)
	want := []Task[int]{{1, 0}, {2, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}}
	got := drain(t, s, 6)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d = %+v, want %+v (full order %v)", i, got[i], want[i], got)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("drained scheduler still dispatching")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}

// TestWeightedShares: two saturated tenants at weights 3:1 are served in
// 3:1 proportion over any window, and exactly 3:1 overall.
func TestWeightedShares(t *testing.T) {
	s := New[int]()
	s.AddTenant("heavy", 3)
	s.AddTenant("light", 1)
	s.Enqueue("heavy", 1, 300)
	s.Enqueue("light", 2, 100)
	served := map[int]int{}
	for _, tk := range drain(t, s, 400) {
		served[tk.Job]++
	}
	if served[1] != 300 || served[2] != 100 {
		t.Fatalf("served %v, want 300/100", served)
	}
	// Windowed fairness: after any full WDRR cycle boundary (multiples of
	// 4 tasks) the ratio is exactly 3:1 — light never starves.
	s2 := New[int]()
	s2.AddTenant("heavy", 3)
	s2.AddTenant("light", 1)
	s2.Enqueue("heavy", 1, 40)
	s2.Enqueue("light", 2, 40)
	heavy, light := 0, 0
	for i := 0; i < 40; i++ {
		tk, _ := s2.Next()
		if tk.Job == 1 {
			heavy++
		} else {
			light++
		}
		if (i+1)%4 == 0 {
			if heavy != 3*light {
				t.Fatalf("after %d tasks: heavy=%d light=%d, want 3:1 at cycle boundaries", i+1, heavy, light)
			}
		}
	}
}

// TestRoundRobinBoundsEveryWait is the property behind the job
// round-robin: under random enqueue and remove sequences within one
// tenant, while a live job waits (from its enqueue or its last dispatch
// to its next dispatch) every other job is dispatched at most once. So a
// job waits at most m-1 dispatches, m being the jobs live during the
// wait: with a steady set of m live jobs, each is dispatched at least
// once in every m dispatches of the tenant.
func TestRoundRobinBoundsEveryWait(t *testing.T) {
	// wait is one live job's current wait: the other jobs live during it,
	// and those dispatched during it.
	type wait struct{ live, served map[int]bool }
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New[int]()
		s.AddTenant("a", 1)
		left := map[int]int{} // live job -> undispatched tasks
		waits := map[int]*wait{}
		startWait := func(j int) {
			w := &wait{live: map[int]bool{}, served: map[int]bool{}}
			for x := range left {
				if x != j {
					w.live[x] = true
				}
			}
			waits[j] = w
		}
		nextJob := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 3 || len(left) == 0:
				nextJob++
				left[nextJob] = 1 + rng.Intn(6)
				s.Enqueue("a", nextJob, left[nextJob])
				for _, w := range waits {
					w.live[nextJob] = true
				}
				startWait(nextJob)
			case r == 3:
				for j := range left {
					s.Remove(j)
					delete(left, j)
					delete(waits, j)
					break
				}
			default:
				tk, ok := s.Next()
				if !ok {
					t.Fatalf("seed %d: dry with %d live jobs", seed, len(left))
				}
				j := tk.Job
				if left[j] == 0 {
					t.Fatalf("seed %d step %d: dispatched job %d, which is not live", seed, step, j)
				}
				for x, w := range waits {
					if x == j {
						continue
					}
					if w.served[j] {
						t.Fatalf("seed %d step %d: job %d dispatched twice while job %d waited (%d jobs live during the wait)",
							seed, step, j, x, len(w.live)+1)
					}
					w.served[j] = true
				}
				if left[j]--; left[j] == 0 {
					delete(left, j)
					delete(waits, j)
				} else {
					startWait(j)
				}
			}
		}
	}
}

// TestRemoveKeepsCursor: cancelling a job mid-ring keeps the round-robin
// cursor on the next job, and an idle tenant leaves the active ring.
func TestRemoveKeepsCursor(t *testing.T) {
	s := New[int]()
	s.AddTenant("a", 1)
	s.Enqueue("a", 1, 2)
	s.Enqueue("a", 2, 2)
	s.Enqueue("a", 3, 2)
	if tk, _ := s.Next(); tk.Job != 1 {
		t.Fatalf("first task from %d", tk.Job)
	}
	s.Remove(2)
	want := []Task[int]{{3, 0}, {1, 1}, {3, 1}}
	for i, w := range want {
		if tk, _ := s.Next(); tk != w {
			t.Fatalf("task %d = %+v, want %+v", i, tk, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("scheduler not dry after removals")
	}
	if s.Backlog("a") != 0 {
		t.Fatalf("backlog %d", s.Backlog("a"))
	}
	// Removing an unknown or drained job is a no-op.
	s.Remove(2)
	s.Remove(99)
}

// TestChurnConvergesToWeights is the property form of the fairness gate: a
// 3:1 weight ratio yields a 3:1 served ratio under continuous job churn —
// jobs of random sizes arriving and draining, never an idle moment for
// either tenant.
func TestChurnConvergesToWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New[int]()
	s.AddTenant("heavy", 3)
	s.AddTenant("light", 1)
	owner := map[int]string{}
	nextJob := 0
	enqueue := func(tenant string) {
		nextJob++
		owner[nextJob] = tenant
		s.Enqueue(tenant, nextJob, 1+rng.Intn(7))
	}
	// Keep both tenants saturated (backlog deeper than the largest
	// quantum, so neither ever forfeits deficit by running dry) while
	// serving 8000 tasks through continuous arrival/drain churn.
	served := map[string]int{}
	for i := 0; i < 8000; i++ {
		for _, tn := range []string{"heavy", "light"} {
			for s.Backlog(tn) < 4 || rng.Intn(8) == 0 {
				enqueue(tn)
			}
		}
		tk, ok := s.Next()
		if !ok {
			t.Fatal("scheduler dry despite replenishment")
		}
		served[owner[tk.Job]]++
	}
	ratio := float64(served["heavy"]) / float64(served["light"])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("served ratio %.2f (heavy=%d light=%d), want ~3.0", ratio, served["heavy"], served["light"])
	}
}

// TestIdleTenantDoesNotDilute: a declared tenant with nothing queued (the
// admission-rejected case) costs the others nothing — the remaining
// tenants still split the pool by their weights alone.
func TestIdleTenantDoesNotDilute(t *testing.T) {
	s := New[int]()
	s.AddTenant("a", 3)
	s.AddTenant("b", 1)
	s.AddTenant("quota-exhausted", 100) // never enqueues anything
	s.Enqueue("a", 1, 30)
	s.Enqueue("b", 2, 10)
	got := drain(t, s, 40)
	served := map[int]int{}
	for _, tk := range got {
		served[tk.Job]++
	}
	if served[1] != 30 || served[2] != 10 {
		t.Fatalf("served %v with idle tenant declared", served)
	}
}

// TestSnapshotOrderAndPending: Snapshot lists jobs in submission order
// with live pending counts.
func TestSnapshotOrderAndPending(t *testing.T) {
	s := New[int]()
	s.AddTenant("a", 1)
	s.AddTenant("b", 2)
	s.Enqueue("a", 1, 3)
	s.Enqueue("b", 2, 2)
	drain(t, s, 2)
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if snap[0].Job != 1 || snap[0].Tenant != "a" {
		t.Fatalf("snap[0] = %+v", snap[0])
	}
	if snap[1].Job != 2 || snap[1].Tenant != "b" {
		t.Fatalf("snap[1] = %+v", snap[1])
	}
	if snap[0].Pending+snap[1].Pending != 3 {
		t.Fatalf("pending %d+%d, want 3 total", snap[0].Pending, snap[1].Pending)
	}
}

// TestEnqueueMisuse pins the programming-error panics.
func TestEnqueueMisuse(t *testing.T) {
	s := New[int]()
	s.AddTenant("a", 1)
	s.Enqueue("a", 1, 1)
	for name, fn := range map[string]func(){
		"unknown tenant": func() { s.Enqueue("ghost", 2, 1) },
		"duplicate job":  func() { s.Enqueue("a", 1, 1) },
		"empty job":      func() { s.Enqueue("a", 3, 0) },
		"dup tenant":     func() { s.AddTenant("a", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
