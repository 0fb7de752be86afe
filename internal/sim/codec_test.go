package sim

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"dynring/internal/wire"
)

// randInts draws a nil, empty or short slice with negative and large
// values, so the codec sees every shape encoding/json distinguishes.
func randInts(rng *rand.Rand) []int {
	switch rng.IntN(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.IntN(6))
	for i := range out {
		switch rng.IntN(3) {
		case 0:
			out[i] = -1
		case 1:
			out[i] = rng.IntN(1000)
		default:
			out[i] = int(rng.Int64()) - int(rng.Int64())
		}
	}
	return out
}

// randResult draws a Result covering every Outcome, including the invalid
// 0 and out-of-range values, negative rounds, and nil vs empty slices.
func randResult(rng *rand.Rand) Result {
	return Result{
		Outcome:       Outcome(rng.IntN(7) - 1),
		Rounds:        rng.IntN(1 << 20),
		Explored:      rng.IntN(2) == 0,
		ExploredRound: rng.IntN(100) - 1,
		TerminatedAt:  randInts(rng),
		Terminated:    rng.IntN(4),
		Moves:         randInts(rng),
		TotalMoves:    int(rng.Int64()),
		CycleStart:    -rng.IntN(3),
	}
}

// TestResultCodecMatchesEncodingJSON: AppendResult emits exactly
// json.Marshal's bytes, and ReadResult reads them back to a value equal to
// json.Unmarshal's, nil and empty slices kept apart.
func TestResultCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	for i := 0; i < 2000; i++ {
		r := randResult(rng)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendResult(nil, &r)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendResult(%+v)\n got %s\nwant %s", r, got, want)
		}
		var back Result
		l := wire.NewLexer(got)
		ReadResult(&l, &back)
		if !l.End() {
			t.Fatalf("fast path rejected canonical %s", got)
		}
		var oracle Result
		if err := json.Unmarshal(got, &oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, oracle) || !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip of %s: got %+v, encoding/json %+v, original %+v", got, back, oracle, r)
		}
	}
}

// TestReadResultLeavesNonCanonicalToEncodingJSON: inputs encoding/json
// reads differently from the obvious reading — case-folded or repeated
// keys, null scalars, floats — fail the fast path rather than decode.
func TestReadResultLeavesNonCanonicalToEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`{"outcome":1}`,
		`{"Rounds":1,"Rounds":2}`,
		`{"Moves":[1],"Moves":[2,3]}`,
		`{"Rounds":null}`,
		`{"Rounds":1.0}`,
		`{"Rounds":1e3}`,
		`{"Rounds":01}`,
		`{"Rounds":99999999999999999999}`,
		`{"Explored":1}`,
		`{"Moves":[1,]}`,
		`{"Unknown":1}`,
		`{"Rounds":1,}`,
	} {
		var r Result
		l := wire.NewLexer([]byte(in))
		ReadResult(&l, &r)
		if l.End() {
			t.Errorf("fast path accepted non-canonical %s as %+v", in, r)
		}
	}
}

// TestAppendResultAllocs: appending into a buffer with room never
// allocates.
func TestAppendResultAllocs(t *testing.T) {
	r := Result{Outcome: OutcomeAllTerminated, Rounds: 99, Explored: true, TerminatedAt: []int{9, 12, -1}, Moves: []int{3, 4, 5}}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = AppendResult(buf[:0], &r) }); n != 0 {
		t.Fatalf("AppendResult allocates %v times per call, want 0", n)
	}
}
