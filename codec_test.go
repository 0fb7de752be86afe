package dynring

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynring/internal/wire"
)

// codecStrings are the strings the codec tests draw from: plain ones take
// the inline path, the rest exercise every escaping rule encoding/json
// applies (quotes, backslashes, HTML characters, control bytes, U+2028,
// non-ASCII) and invalid UTF-8, which encoding/json replaces lossily.
var codecStrings = []string{
	"", "KnownNNoChirality/n=8/random(p=0.5)/seed=3", "fp-0123abcd", "plain text",
	`say "hi"`, `C:\path`, "<b>&amp;</b>", "x<y", "y>x", "r&d", "tab\tnewline\n", "\x00\x1f\x7f",
	"line\xe2\x80\xa8sep\xe2\x80\xa9", "h\xc3\xa9llo", "bad \xff\xfe utf-8",
}

// lossy reports whether s does not survive a JSON round trip unchanged.
func lossy(s string) bool { return strings.Contains(s, "\xff") }

func randString(rng *rand.Rand, lossless *bool) string {
	s := codecStrings[rng.IntN(len(codecStrings))]
	if lossy(s) {
		*lossless = false
	}
	return s
}

func randInts(rng *rand.Rand) []int {
	switch rng.IntN(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.IntN(5))
	for i := range out {
		out[i] = rng.IntN(2000) - 1000
		if rng.IntN(8) == 0 {
			out[i] = int(rng.Int64()) - int(rng.Int64())
		}
	}
	return out
}

// randRow draws a result-stream row: data rows with and without a result
// (every Outcome, invalid 0 included), error rows, and the abort row.
func randRow(rng *rand.Rand) (ResultRow, bool) {
	lossless := true
	row := ResultRow{Index: rng.IntN(5000)}
	if rng.IntN(10) == 0 {
		row.Index = StreamAbortedIndex
	}
	row.Name = randString(rng, &lossless)
	row.Fingerprint = randString(rng, &lossless)
	if rng.IntN(3) == 0 {
		row.Error = randString(rng, &lossless)
	}
	if row.Error == "" || rng.IntN(4) == 0 {
		row.Result = &Result{
			Outcome:       Outcome(rng.IntN(6)),
			Rounds:        rng.IntN(1 << 20),
			Explored:      rng.IntN(2) == 0,
			ExploredRound: rng.IntN(100) - 1,
			TerminatedAt:  randInts(rng),
			Terminated:    rng.IntN(4),
			Moves:         randInts(rng),
			TotalMoves:    rng.IntN(1 << 30),
			CycleStart:    rng.IntN(3) - 1,
		}
	}
	return row, lossless
}

// codecFloats are the adversary parameters the spec tests draw from,
// including the ones encoding/json prints in exponent form.
var codecFloats = []float64{0, 0.5, 0.1, 1, 1e-07, 1e-06, 1e21, 123456.789, 5e-324, -0.25}

func randAdversary(rng *rand.Rand, lossless *bool) AdversarySpec {
	a := AdversarySpec{Kind: randString(rng, lossless)}
	if rng.IntN(2) == 0 {
		a.Kind = []string{"random", "greedy", "pin", "tinterval"}[rng.IntN(4)]
	}
	a.P = codecFloats[rng.IntN(len(codecFloats))]
	a.Act = codecFloats[rng.IntN(len(codecFloats))]
	a.Edge, a.Pin = rng.IntN(5)-1, rng.IntN(3)
	a.T, a.R, a.W = rng.IntN(4), rng.IntN(4), rng.IntN(4)
	return a
}

func randScenarioSpec(rng *rand.Rand, lossless *bool) ScenarioSpec {
	sp := ScenarioSpec{
		Name:             randString(rng, lossless),
		Size:             rng.IntN(40) - 2,
		Landmark:         rng.IntN(3) - 1,
		Algorithm:        []string{"KnownNNoChirality", "LandmarkWithChirality", ""}[rng.IntN(3)],
		Model:            []string{"", "fsync", "ssync-pt"}[rng.IntN(3)],
		UpperBound:       rng.IntN(3) * 16,
		ExactSize:        rng.IntN(2) * 12,
		Starts:           randInts(rng),
		Seed:             rng.Int64() - rng.Int64(),
		MaxRounds:        rng.IntN(3) * 1000,
		StopWhenExplored: rng.IntN(2) == 0,
		FairnessBound:    rng.IntN(3),
		DetectCycles:     rng.IntN(2) == 0,
	}
	if rng.IntN(3) == 0 {
		sp.Orients = []string{"cw", "ccw", randString(rng, lossless)}[:rng.IntN(4)]
	}
	if rng.IntN(2) == 0 {
		a := randAdversary(rng, lossless)
		sp.Adversary = &a
	}
	return sp
}

// randSweepSpec draws a spec in axis form or explicit-list form.
func randSweepSpec(rng *rand.Rand) (SweepSpec, bool) {
	lossless := true
	var sp SweepSpec
	if rng.IntN(2) == 0 {
		for range rng.IntN(4) {
			sp.Scenarios = append(sp.Scenarios, randScenarioSpec(rng, &lossless))
		}
		return sp, lossless
	}
	sp.Base = randScenarioSpec(rng, &lossless)
	for range rng.IntN(3) {
		sp.Algorithms = append(sp.Algorithms, randString(rng, &lossless))
	}
	sp.Sizes = randInts(rng)
	if rng.IntN(2) == 0 {
		sp.Seeds = []int64{rng.Int64(), -rng.Int64(), 0}[:rng.IntN(4)]
	}
	for range rng.IntN(3) {
		sp.Adversaries = append(sp.Adversaries, randAdversary(rng, &lossless))
	}
	return sp, lossless
}

// escaped reports whether JSON text holds an escape or non-ASCII byte:
// the only canonical input the fast paths may leave to encoding/json.
func escaped(b []byte) bool {
	for _, c := range b {
		if c == '\\' || c > 0x7e {
			return true
		}
	}
	return false
}

// TestResultRowCodecMatchesEncodingJSON: over seeded random rows,
// AppendJSON emits exactly json.Marshal's bytes, and ParseResultRow reads
// them — on the fast path unless they hold escapes — to the value
// json.Unmarshal produces, which is the original row whenever its strings
// survive JSON.
func TestResultRowCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2))
	for i := 0; i < 3000; i++ {
		row, lossless := randRow(rng)
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		got := row.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%+v)\n got %s\nwant %s", row, got, want)
		}
		var fast ResultRow
		if !readResultRow(got, &fast) && !escaped(got) {
			t.Fatalf("fast path rejected canonical row %s", got)
		}
		var back, oracle ResultRow
		if err := ParseResultRow(got, &back); err != nil {
			t.Fatalf("ParseResultRow(%s): %v", got, err)
		}
		if err := json.Unmarshal(got, &oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, oracle) {
			t.Fatalf("ParseResultRow(%s) = %+v, encoding/json %+v", got, back, oracle)
		}
		if lossless && !reflect.DeepEqual(back, row) {
			t.Fatalf("round trip of %+v gave %+v", row, back)
		}
	}
}

// decodeSweepSpecOracle is the definition DecodeSweepSpec must match:
// encoding/json with unknown fields disallowed, and nothing but whitespace
// after the value.
func decodeSweepSpecOracle(data []byte) (SweepSpec, error) {
	var sp SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return SweepSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return SweepSpec{}, io.ErrUnexpectedEOF // any error: trailing data
	}
	return sp, nil
}

// TestSpecDecodersMatchEncodingJSON: json.Marshal output of seeded random
// specs — both forms, exponent-form floats, escaped and invalid-UTF-8
// strings — decodes through DecodeSweepSpec and DecodeRunRequest to the
// oracle's value, on the fast path unless it holds escapes, and
// re-encodes to the same bytes when its strings survive JSON.
func TestSpecDecodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 3))
	for i := 0; i < 3000; i++ {
		sp, lossless := randSweepSpec(rng)
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		l := wire.NewLexer(data)
		var fast SweepSpec
		if readSweepSpec(&l, &fast); !l.End() && !escaped(data) {
			t.Fatalf("fast path rejected canonical spec %s", data)
		}
		got, err := DecodeSweepSpec(data)
		if err != nil {
			t.Fatalf("DecodeSweepSpec(%s): %v", data, err)
		}
		want, err := decodeSweepSpecOracle(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeSweepSpec(%s)\n = %+v\nwant %+v", data, got, want)
		}
		// omitempty drops empty slices, so compare re-encodings.
		if again, _ := json.Marshal(got); lossless && !bytes.Equal(again, data) {
			t.Fatalf("round trip of %s gave %s", data, again)
		}

		req := RunRequest{Scenario: randScenarioSpec(rng, new(bool))}
		data, _ = json.Marshal(req)
		gotReq, err := DecodeRunRequest(data)
		var wantReq RunRequest
		if werr := json.Unmarshal(data, &wantReq); err != nil || werr != nil || !reflect.DeepEqual(gotReq, wantReq) {
			t.Fatalf("DecodeRunRequest(%s) = %+v, %v; encoding/json %+v, %v", data, gotReq, err, wantReq, werr)
		}
	}
}

// specFloats widens codecFloats for the encoder tests: -0 (omitted, as 0
// is), both sides of the 1e-6 and 1e21 switches between 'f' and 'e' form,
// negative values, subnormals and extremes.
var specFloats = append(codecFloats[:len(codecFloats):len(codecFloats)], math.Copysign(0, -1),
	math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), -1e21, -1e-7, 1e-10, 0.3333333333333333,
	1.5e300, math.MaxFloat64, 1<<53+1)

// forEachAdversary calls fn on every AdversarySpec sp holds.
func forEachAdversary(sp *SweepSpec, fn func(*AdversarySpec)) {
	for i := range sp.Adversaries {
		fn(&sp.Adversaries[i])
	}
	for _, sc := range append(sp.Scenarios, sp.Base) {
		if sc.Adversary != nil {
			fn(sc.Adversary)
		}
	}
}

// checkAppendSweepSpec fails t unless sp.AppendJSON emits json.Marshal's
// bytes, which decode on the fast path (unless json.Marshal escaped a
// string, which the fast path leaves to encoding/json) to what
// DecodeSweepSpec reads from them.
func checkAppendSweepSpec(t *testing.T, sp SweepSpec) {
	t.Helper()
	want, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", sp, err)
	}
	got, err := sp.AppendJSON([]byte("x"))
	if err != nil || !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendJSON(%+v)\n got %s, %v\nwant x%s", sp, got, err, want)
	}
	l := wire.NewLexer(want)
	var fast SweepSpec
	if readSweepSpec(&l, &fast); !l.End() {
		if !escaped(want) {
			t.Fatalf("fast path rejected AppendJSON output %s", want)
		}
		return
	}
	if back, err := DecodeSweepSpec(want); err != nil || !reflect.DeepEqual(fast, back) {
		t.Fatalf("fast path of %s = %+v; DecodeSweepSpec %+v, %v", want, fast, back, err)
	}
}

// TestSpecAppendJSONMatchesEncodingJSON: over seeded random specs of both
// forms, with floats in and out of exponent form, -0, strings that need
// escaping and invalid UTF-8, the spec encoders emit exactly json.Marshal's
// bytes; nil and empty slices both vanish under omitempty; and a NaN or
// infinite parameter anywhere fails with json.Marshal's error.
func TestSpecAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for i := 0; i < 3000; i++ {
		sp, _ := randSweepSpec(rng)
		forEachAdversary(&sp, func(a *AdversarySpec) {
			a.P = specFloats[rng.IntN(len(specFloats))]
			a.Act = specFloats[rng.IntN(len(specFloats))]
		})
		checkAppendSweepSpec(t, sp)

		req := RunRequest{Scenario: randScenarioSpec(rng, new(bool))}
		want, _ := json.Marshal(req)
		if got, err := req.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("RunRequest.AppendJSON(%+v)\n got %s, %v\nwant %s", req, got, err, want)
		}
	}

	checkAppendSweepSpec(t, SweepSpec{})
	checkAppendSweepSpec(t, SweepSpec{
		Base:        ScenarioSpec{Starts: []int{}, Orients: []string{}},
		Algorithms:  []string{},
		Sizes:       []int{},
		Seeds:       []int64{},
		Adversaries: []AdversarySpec{},
		Scenarios:   []ScenarioSpec{},
	})
	checkAppendSweepSpec(t, SweepSpec{Scenarios: []ScenarioSpec{{Starts: []int{}, Orients: []string{}}, {}}})

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := &AdversarySpec{Kind: "random", P: 0.5, Act: bad}
		for _, sp := range []SweepSpec{
			{Base: ScenarioSpec{Adversary: a}},
			{Adversaries: []AdversarySpec{{Kind: "greedy"}, {Kind: "random", P: bad}}},
			{Scenarios: []ScenarioSpec{{}, {Adversary: a}}},
		} {
			_, want := json.Marshal(sp)
			if _, err := sp.AppendJSON(nil); err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("AppendJSON(%+v) error %v, json.Marshal %v", sp, err, want)
			}
		}
		req := RunRequest{Scenario: ScenarioSpec{Adversary: a}}
		_, want := json.Marshal(req)
		if _, err := req.AppendJSON(nil); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("RunRequest.AppendJSON with %g: error %v, json.Marshal %v", bad, err, want)
		}
	}
}

// FuzzAppendSweepSpec: every spec DecodeSweepSpec accepts encodes through
// AppendJSON to exactly json.Marshal's bytes, which decode on the fast
// path unless they hold an escape.
func FuzzAppendSweepSpec(f *testing.F) {
	rng := rand.New(rand.NewPCG(30, 2))
	for range 16 {
		sp, _ := randSweepSpec(rng)
		data, _ := json.Marshal(sp)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeSweepSpec(data)
		if err != nil {
			return
		}
		checkAppendSweepSpec(t, sp)
	})
}

// TestSpecDecodersRejectWhatEncodingJSONRejects pins the strict contract
// both request decoders share: unknown fields and trailing bytes are
// errors with encoding/json's wording, trailing whitespace is not.
func TestSpecDecodersRejectWhatEncodingJSONRejects(t *testing.T) {
	body := `{"base":{"size":8,"landmark":0,"algorithm":"KnownNNoChirality"},"seeds":[1,2]}`
	for in, wantErr := range map[string]string{
		body:                           "",
		body + " \n\t":                 "",
		body + "junk":                  "invalid character 'j' after top-level value",
		body + body:                    "invalid character '{' after top-level value",
		`{"base":{},"bogus":1}`:        `json: unknown field "bogus"`,
		`{"BASE":{"size":8}}`:          "",
		`{"sizes":[8],"sizes":[9,10]}`: "",
		`{"seeds":[1e2]}`:              "json: cannot unmarshal number 1e2 into Go struct field SweepSpec.seeds of type int64",
		``:                             "EOF",
	} {
		_, err := DecodeSweepSpec([]byte(in))
		if (err == nil) != (wantErr == "") || (err != nil && err.Error() != wantErr) {
			t.Errorf("DecodeSweepSpec(%q) error = %v, want %q", in, err, wantErr)
		}
		if _, oerr := decodeSweepSpecOracle([]byte(in)); (oerr == nil) != (err == nil) {
			t.Errorf("DecodeSweepSpec(%q) error = %v, oracle %v", in, err, oerr)
		}
	}
	if _, err := DecodeRunRequest([]byte(`{"scenario":{"size":6}}x`)); err == nil {
		t.Error("DecodeRunRequest accepted trailing bytes")
	}
	if _, err := DecodeRunRequest([]byte(`{"scenario":{"size":6},"extra":1}`)); err == nil {
		t.Error("DecodeRunRequest accepted an unknown field")
	}
}

// FuzzParseResultRow: ParseResultRow never panics, accepts exactly what
// json.Unmarshal accepts, agrees with it on every accepted input, and the
// accepted row re-encodes to json.Marshal's bytes.
func FuzzParseResultRow(f *testing.F) {
	rng := rand.New(rand.NewPCG(18, 4))
	for range 16 {
		row, _ := randRow(rng)
		f.Add(row.AppendJSON(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want ResultRow
		err := ParseResultRow(data, &got)
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseResultRow(%q) error %v, encoding/json %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseResultRow(%q) = %+v, encoding/json %+v", data, got, want)
		}
		enc, _ := json.Marshal(got)
		if app := got.AppendJSON(nil); !bytes.Equal(app, enc) {
			t.Fatalf("AppendJSON = %s, json.Marshal %s", app, enc)
		}
	})
}

// FuzzDecodeSweepSpec: DecodeSweepSpec never panics, accepts exactly what
// the strict encoding/json oracle accepts and agrees with it, copies out
// at exact sizes, decodes into reused storage as into fresh, and an
// accepted spec expands, validates and fingerprints without panicking.
func FuzzDecodeSweepSpec(f *testing.F) {
	rng := rand.New(rand.NewPCG(18, 5))
	var seeds [][]byte
	for range 16 {
		sp, _ := randSweepSpec(rng)
		data, _ := json.Marshal(sp)
		f.Add(data)
		seeds = append(seeds, data)
	}
	// Canonical bodies always carry a base; these leave it out.
	f.Add([]byte(`{"scenarios":[{"size":8,"landmark":0,"algorithm":"KnownNNoChirality"}]}`))
	f.Add([]byte(`{}`))
	// full sets every field the decoders read, so decoding after it leaves
	// stale values wherever a decoder fails to clear one.
	row := ScenarioSpec{
		Name: "full", Size: 9, Landmark: 2, Algorithm: "KnownNNoChirality", Model: "fsync", UpperBound: 12, ExactSize: 9,
		Starts: []int{1, 5}, Orients: []string{"cw", "ccw"},
		Adversary: &AdversarySpec{Kind: "random", P: 0.5, Edge: 1, Pin: 2, T: 3, R: 4, W: 5, Act: 0.25},
		Seed:      7, MaxRounds: 99, StopWhenExplored: true, FairnessBound: 4, DetectCycles: true,
	}
	full, err := SweepSpec{
		Base: row, Algorithms: []string{"KnownNNoChirality"}, Sizes: []int{8, 9}, Seeds: []int64{1},
		Adversaries: []AdversarySpec{*row.Adversary, {Kind: "greedy"}}, Scenarios: []ScenarioSpec{row, row, row},
	}.AppendJSON(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSweepSpec(data)
		want, werr := decodeSweepSpecOracle(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeSweepSpec(%q) error %v, oracle %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeSweepSpec(%q) = %+v, oracle %+v", data, got, want)
		}
		l := wire.NewLexer(data)
		var fast SweepSpec
		if readSweepSpec(&l, &fast); l.End() {
			// A spec the fast path accepts is copied out of its decode
			// storage with every array at its exact size.
			exact := cap(got.Scenarios) == len(got.Scenarios) &&
				cap(got.Adversaries) == len(got.Adversaries) &&
				cap(got.Algorithms) == len(got.Algorithms) &&
				cap(got.Sizes) == len(got.Sizes) &&
				cap(got.Seeds) == len(got.Seeds)
			for _, sc := range append(got.Scenarios, got.Base) {
				exact = exact && cap(sc.Orients) == len(sc.Orients) && cap(sc.Starts) == len(sc.Starts)
			}
			if !exact {
				t.Fatalf("DecodeSweepSpec(%q) left spare capacity: %+v", data, got)
			}
		}
		// Decoding into storage that last held another body reads exactly
		// what decoding into fresh storage reads: no field of the earlier
		// body survives.
		for _, prev := range [][]byte{seeds[len(data)%len(seeds)], full} {
			var reused SweepSpec
			for _, body := range [][]byte{prev, data} {
				l := wire.NewLexer(body)
				readSweepSpec(&l, &reused)
			}
			if !reflect.DeepEqual(reused, fast) {
				t.Fatalf("decoding %q after %q = %+v, into fresh storage %+v", data, prev, reused, fast)
			}
		}
		var reusedRow, freshRow ScenarioSpec
		for _, body := range [][]byte{append(append([]byte(`{"scenario":`), full[len(`{"base":`):bytes.Index(full, []byte(`,"algorithms"`))]...), '}'), data} {
			l := wire.NewLexer(body)
			readRunRequest(&l, &reusedRow)
		}
		l = wire.NewLexer(data)
		if readRunRequest(&l, &freshRow); !reflect.DeepEqual(reusedRow, freshRow) {
			t.Fatalf("decoding run request %q into reused storage = %+v, into fresh storage %+v", data, reusedRow, freshRow)
		}
		// Bound the grid so a short input cannot expand to millions of rows.
		grid := max(len(got.Algorithms), 1) * max(len(got.Sizes), 1) *
			max(len(got.Seeds), 1) * max(len(got.Adversaries), 1)
		if grid > 256 || len(got.Scenarios) > 256 {
			return
		}
		scs, err := got.ScenarioList()
		if err != nil {
			return
		}
		for _, sc := range scs {
			if sc.Validate() == nil {
				_, _ = sc.Fingerprint()
			}
		}
	})
}

// codecZones are the span time zones the RunResponse tests draw from:
// UTC, whole-hour and fractional-hour offsets both ways, and a named zone
// (whose name JSON drops).
var codecZones = []*time.Location{
	time.UTC, time.FixedZone("", 5*3600+30*60), time.FixedZone("", -8*3600),
	time.FixedZone("EST", -5*3600), time.FixedZone("", 14*3600), time.FixedZone("", -(9*3600 + 30*60)),
}

// randTime draws a time MarshalJSON can encode: the zero time, or an
// instant in years 0..9999, with or without nanoseconds, in a random zone.
func randTime(rng *rand.Rand) time.Time {
	if rng.IntN(6) == 0 {
		return time.Time{}
	}
	// Year 0 to 9999 in seconds relative to the Unix epoch.
	const lo, hi = -62167219200, 253402300799
	t := time.Unix(lo+rng.Int64N(hi-lo-16*3600)+15*3600, 0)
	if rng.IntN(2) == 0 {
		t = t.Add(time.Duration(rng.IntN(1e9)))
	}
	return t.In(codecZones[rng.IntN(len(codecZones))])
}

// randRunResponse draws a POST /v1/run response: executed, cached and
// error rows, with and without a result and a span, spans with and
// without an error.
func randRunResponse(rng *rand.Rand) (RunResponse, bool) {
	lossless := true
	row, _ := randRow(rng)
	rr := RunResponse{
		Fingerprint: randString(rng, &lossless),
		Cached:      rng.IntN(2) == 0,
		Result:      row.Result,
	}
	if rng.IntN(3) == 0 {
		rr.Error = randString(rng, &lossless)
	}
	if rng.IntN(4) != 0 {
		rr.Span = &TraceSpan{
			Index:      rng.IntN(5000),
			Node:       randString(rng, &lossless),
			Kind:       []string{"executed", "cache-hit", "error", randString(rng, &lossless)}[rng.IntN(4)],
			EnqueuedAt: randTime(rng),
			StartedAt:  randTime(rng),
			FinishedAt: randTime(rng),
		}
		if rng.IntN(3) == 0 {
			rr.Span.Name = randString(rng, &lossless)
		}
		if rng.IntN(3) == 0 {
			rr.Span.Error = randString(rng, &lossless)
		}
	}
	return rr, lossless
}

// TestRunResponseCodecMatchesEncodingJSON: over seeded random responses,
// AppendJSON emits exactly json.Marshal's bytes — span times included,
// byte for byte as time.Time.MarshalJSON writes them — and
// ParseRunResponse reads them, on the fast path unless they hold escapes,
// to the value json.Unmarshal produces, which re-encodes to the same
// bytes whenever the strings survive JSON.
func TestRunResponseCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	for i := 0; i < 3000; i++ {
		rr, lossless := randRunResponse(rng)
		want, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		got := rr.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%+v)\n got %s\nwant %s", rr, got, want)
		}
		var fast RunResponse
		if !readRunResponse(got, &fast) && !escaped(got) {
			t.Fatalf("fast path rejected canonical response %s", got)
		}
		var back, oracle RunResponse
		if err := ParseRunResponse(got, &back); err != nil {
			t.Fatalf("ParseRunResponse(%s): %v", got, err)
		}
		if err := json.Unmarshal(got, &oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, oracle) {
			t.Fatalf("ParseRunResponse(%s) = %+v, encoding/json %+v", got, back, oracle)
		}
		// Zone names do not survive JSON, so compare re-encodings.
		if again := back.AppendJSON(nil); lossless && !bytes.Equal(again, got) {
			t.Fatalf("round trip of %s gave %s", got, again)
		}
	}
}

// TestRunResponseTimesOutsideJSON: a span time encoding/json refuses to
// encode is written as null, which encoding/json reads back as the zero
// time.
func TestRunResponseTimesOutsideJSON(t *testing.T) {
	for _, ts := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 1, 1, 0, 0, 0, 0, time.FixedZone("", 25*3600)),
	} {
		rr := RunResponse{Fingerprint: "fp", Span: &TraceSpan{Node: "n", Kind: "executed", StartedAt: ts}}
		if _, err := json.Marshal(rr); err == nil {
			t.Fatalf("encoding/json encodes %v; the test expects a refusal", ts)
		}
		got := rr.AppendJSON(nil)
		if !bytes.Contains(got, []byte(`"started_at":null`)) {
			t.Fatalf("AppendJSON with %v = %s, want started_at null", ts, got)
		}
		var back RunResponse
		if err := ParseRunResponse(got, &back); err != nil || !back.Span.StartedAt.IsZero() {
			t.Fatalf("ParseRunResponse(%s) = %+v, %v; want a zero started_at", got, back.Span, err)
		}
	}
}

// FuzzParseRunResponse: ParseRunResponse never panics, accepts exactly
// what json.Unmarshal accepts, agrees with it on every accepted input, and
// an accepted response re-encodes to json.Marshal's bytes.
func FuzzParseRunResponse(f *testing.F) {
	rng := rand.New(rand.NewPCG(19, 2))
	for range 16 {
		rr, _ := randRunResponse(rng)
		f.Add(rr.AppendJSON(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want RunResponse
		err := ParseRunResponse(data, &got)
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseRunResponse(%q) error %v, encoding/json %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseRunResponse(%q) = %+v, encoding/json %+v", data, got, want)
		}
		enc, merr := json.Marshal(got)
		if merr != nil {
			return // a parsed time encoding/json cannot encode back
		}
		if app := got.AppendJSON(nil); !bytes.Equal(app, enc) {
			t.Fatalf("AppendJSON = %s, json.Marshal %s", app, enc)
		}
	})
}
