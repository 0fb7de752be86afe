package adversary

import (
	"math/rand"
	"testing"

	"dynring/internal/sim"
)

// TestSeedReproducesNewSource: a run-scoped adversary seeded from a lent,
// previously used source draws exactly the sequence of its own
// rand.NewSource(seed); unscoped adversaries get their own source, and
// ones that already drew keep theirs.
func TestSeedReproducesNewSource(t *testing.T) {
	used := rand.New(rand.NewSource(99))
	for range 1000 {
		used.Int63()
	}
	lend := func() *rand.Rand { return used }

	inner := RunScoped(NewRandomEdge(0.5, 7)).(*RandomEdge)
	outer := RunScoped(NewRandomActivation(0.5, 8, inner)).(*RandomActivation)
	Seed(outer, func() *rand.Rand { return rand.New(rand.NewSource(0)) })
	for _, s := range []*stream{&inner.stream, &outer.stream} {
		want := rand.New(rand.NewSource(s.seed))
		for range 100 {
			if got, w := s.rand().Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d: lent source drew %d, NewSource %d", s.seed, got, w)
			}
		}
	}

	ti := RunScoped(NewTInterval(3, 5)).(*TInterval)
	Seed(ti, lend)
	if ti.rng != used {
		t.Fatal("a scoped adversary that has not drawn was not lent the source")
	}
	want := rand.New(rand.NewSource(5))
	for range 100 {
		if got, w := ti.rand().Intn(1000), want.Intn(1000); got != w {
			t.Fatalf("reseeded source drew %d, NewSource %d", got, w)
		}
	}

	for _, a := range []sim.Adversary{NewRandomEdge(0.5, 1), RunScoped(NewRandomEdge(0.5, 2))} {
		a.(seeded).seedStream().rand()
		before := a.(seeded).seedStream().rng
		Seed(a, lend)
		if a.(seeded).seedStream().rng != before {
			t.Fatal("Seed replaced the source of a started adversary")
		}
	}
	unscoped := NewRandomEdge(0.5, 3)
	Seed(unscoped, lend)
	if unscoped.rng == nil || unscoped.rng == used {
		t.Fatal("an unscoped adversary must get a source of its own")
	}
	want = rand.New(rand.NewSource(3))
	if got, w := unscoped.rand().Int63(), want.Int63(); got != w {
		t.Fatalf("own source drew %d, NewSource %d", got, w)
	}
}
