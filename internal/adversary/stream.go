package adversary

import (
	"math/rand"

	"dynring/internal/sim"
)

// stream is a seeded adversary's math/rand source. Seed provides it before
// a run (a recycled one, or the adversary's own), and the first draw
// creates it if nothing did; either way it yields exactly the sequence
// rand.NewSource(seed) does.
type stream struct {
	seed int64
	rng  *rand.Rand
	// scoped marks an adversary built for exactly one run (RunScoped), the
	// only kind Seed may hand a recycled source.
	scoped bool
}

// rand returns the source, creating it on first use.
func (s *stream) rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// seedStream exposes the stream of the seeded adversaries that embed it.
func (s *stream) seedStream() *stream { return s }

type seeded interface{ seedStream() *stream }

// RunScoped marks a, when it is a seeded random adversary (RandomEdge,
// RandomActivation, TInterval), as built for exactly one run — an
// AdversaryFactory's product, which nothing else holds — so Seed may hand
// it a recycled source. It returns a.
func RunScoped(a sim.Adversary) sim.Adversary {
	if s, ok := a.(seeded); ok {
		s.seedStream().scoped = true
	}
	return a
}

// Seed gives every seeded adversary in a that has not drawn yet — a
// RandomActivation's edge strategy included — its source before a run
// starts, so the run's first draw allocates nothing. A run-scoped one gets
// a source from next (when next is non-nil), reseeded with its seed:
// (*rand.Rand).Seed reproduces rand.NewSource's sequence exactly, so a run
// draws the same numbers while its caller reuses one set of sources (about
// 5 KB each) across runs. The caller must not hand a source out again
// while a run that holds it goes on. Any other gets a source of its own.
func Seed(a sim.Adversary, next func() *rand.Rand) {
	if ra, ok := a.(*RandomActivation); ok && ra.Edges != nil {
		Seed(ra.Edges, next)
	}
	s, ok := a.(seeded)
	if !ok {
		return
	}
	switch st := s.seedStream(); {
	case st.rng != nil:
	case st.scoped && next != nil:
		st.rng = next()
		st.rng.Seed(st.seed)
	default:
		st.rand()
	}
}
