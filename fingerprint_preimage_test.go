package dynring

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fmtFingerprint is the fmt formula Fingerprint hashed before it built its
// pre-image by hand, kept verbatim as the oracle: every byte of the text is
// a cache key, so the two must agree on every scenario.
func fmtFingerprint(s Scenario) (string, error) {
	if s.NewProtocols != nil {
		return "", fmt.Errorf("%w: NewProtocols factories have no canonical encoding", ErrNotFingerprintable)
	}
	if s.NewAdversary != nil && s.AdversaryLabel == "" {
		return "", fmt.Errorf("%w: adversary factory without AdversaryLabel", ErrNotFingerprintable)
	}
	// Built, so the default starts and orients are filled in.
	r, err := s.resolve(true)
	if err != nil {
		return "", err
	}
	adv := "-"
	if s.NewAdversary != nil {
		adv = fmt.Sprintf("%d:%s", len(s.AdversaryLabel), s.AdversaryLabel)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", s.fingerprintVersionFor(&r))
	fmt.Fprintf(h, "size=%d landmark=%d algo=%d:%s model=%d ub=%d es=%d\n",
		s.Size, s.Landmark, len(r.spec.Name), r.spec.Name, int(r.model),
		r.params.UpperBound, r.params.ExactSize)
	fmt.Fprintf(h, "starts=%v orients=%v\n", r.starts, r.orients)
	fmt.Fprintf(h, "adv=%s seed=%d max=%d stop=%t fair=%d cycles=%t\n",
		adv, s.Seed, r.maxRounds, s.StopWhenExplored, s.FairnessBound, s.DetectCycles)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// randomFingerprintScenario draws a scenario over every field Fingerprint
// hashes. Many draws fail validation (wrong agent count, mixed orients on a
// chirality algorithm); the caller checks that both sides reject those.
func randomFingerprintScenario(rng *rand.Rand, algos []Algorithm) Scenario {
	alg := algos[rng.Intn(len(algos))]
	s := Scenario{
		Algorithm: alg.Name,
		Size:      3 + rng.Intn(40),
		Landmark:  NoLandmark,
		Seed:      rng.Int63() - rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		s.Landmark = rng.Intn(s.Size)
	}
	if rng.Intn(2) == 0 {
		s.Model = alg.Models[rng.Intn(len(alg.Models))]
	}
	if rng.Intn(3) == 0 {
		s.UpperBound = s.Size + rng.Intn(5)
	}
	if rng.Intn(3) == 0 {
		s.ExactSize = s.Size
	}
	if rng.Intn(2) == 0 {
		s.Starts = rng.Perm(s.Size)[:min(alg.Agents, s.Size)]
	}
	if rng.Intn(2) == 0 {
		// All CW, all CCW, or alternating (which chirality algorithms reject).
		mode := rng.Intn(3)
		s.Orients = make([]GlobalDir, alg.Agents)
		for i := range s.Orients {
			s.Orients[i] = CW
			if mode == 1 || (mode == 2 && i%2 == 1) {
				s.Orients[i] = CCW
			}
		}
	}
	labels := []string{"random(p=0.5)", "greedy", "act(0.7)+capped(r=2)", "tinterval(T=3)",
		"custom: two words", "a:b:c", " ", ""}
	if k := rng.Intn(len(labels) + 1); k < len(labels) {
		s.AdversaryLabel = labels[k]
		s.NewAdversary = func(int64) Adversary { return nil }
	}
	if rng.Intn(2) == 0 {
		s.MaxRounds = 1 + rng.Intn(1_000_000)
	}
	if rng.Intn(2) == 0 {
		s.FairnessBound = 1 + rng.Intn(50)
	}
	s.StopWhenExplored = rng.Intn(2) == 0
	s.DetectCycles = rng.Intn(2) == 0
	return s
}

// TestFingerprintMatchesFmtOracle: Fingerprint's hand-built pre-image must
// hash to the same digest as the fmt formula over seeded random scenarios,
// covering every encoding branch at least once.
func TestFingerprintMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20161512))
	algos := Algorithms()
	covered := map[string]int{}
	for i := 0; i < 4000; i++ {
		s := randomFingerprintScenario(rng, algos)
		got, err := s.Fingerprint()
		want, werr := fmtFingerprint(s)
		if (err == nil) != (werr == nil) {
			t.Fatalf("draw %d: Fingerprint err = %v, oracle err = %v (%+v)", i, err, werr, s)
		}
		if err != nil {
			continue
		}
		if got != want {
			t.Fatalf("draw %d: Fingerprint = %s, fmt oracle = %s (%+v)", i, got, want, s)
		}
		covered["valid"]++
		for name, hit := range map[string]bool{
			"explicit starts":   s.Starts != nil,
			"explicit orients":  s.Orients != nil,
			"ccw orient":        len(s.Orients) > 0 && s.Orients[len(s.Orients)-1] == CCW,
			"negative seed":     s.Seed < 0,
			"no landmark":       s.Landmark == NoLandmark,
			"nil adversary":     s.NewAdversary == nil,
			"labelled":          s.NewAdversary != nil,
			"label with colon":  s.NewAdversary != nil && strings.Contains(s.AdversaryLabel, ":"),
			"label with space":  s.NewAdversary != nil && strings.Contains(s.AdversaryLabel, " "),
			"v2 encoding":       s.fingerprintVersionFor(mustResolve(t, s)) == fingerprintVersionV2,
			"stop when explore": s.StopWhenExplored,
			"detect cycles":     s.DetectCycles,
			"fairness bound":    s.FairnessBound != 0,
			"max rounds":        s.MaxRounds != 0,
		} {
			if hit {
				covered[name]++
			}
		}
	}
	for _, name := range []string{"valid", "explicit starts", "explicit orients", "ccw orient",
		"negative seed", "no landmark", "nil adversary", "labelled", "label with colon",
		"label with space", "v2 encoding", "stop when explore", "detect cycles",
		"fairness bound", "max rounds"} {
		if covered[name] == 0 {
			t.Errorf("no valid draw covered %q", name)
		}
	}
}

func mustResolve(t *testing.T, s Scenario) *resolved {
	t.Helper()
	r, err := s.resolve(false)
	if err != nil {
		t.Fatal(err)
	}
	return &r
}
