package dynring_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dynring"
)

func TestAdversarySpecLabels(t *testing.T) {
	tests := []struct {
		spec dynring.AdversarySpec
		want string
	}{
		{dynring.AdversarySpec{Kind: "none"}, "none"},
		{dynring.AdversarySpec{Kind: "greedy"}, "greedy"},
		{dynring.AdversarySpec{Kind: "random", P: 0.5}, "random(p=0.5)"},
		{dynring.AdversarySpec{Kind: "random", P: 0.25}, "random(p=0.25)"},
		{dynring.AdversarySpec{Kind: "pin", Pin: 1}, "pin(1)"},
		{dynring.AdversarySpec{Kind: "persistent", Edge: 3}, "persistent(3)"},
		{dynring.AdversarySpec{Kind: "frontier", Act: 0.6}, "act(0.6)+frontier"},
		{dynring.AdversarySpec{Kind: "random", P: 0.4, Act: 1}, "random(p=0.4)"},
		{dynring.AdversarySpec{Kind: "tinterval", T: 2}, "tinterval(T=2)"},
		{dynring.AdversarySpec{Kind: "capped", R: 3}, "capped(r=3)"},
		{dynring.AdversarySpec{Kind: "recurrent", W: 4}, "recurrent(w=4)"},
		{dynring.AdversarySpec{Kind: "capped", R: 2, Act: 0.8}, "act(0.8)+capped(r=2)"},
	}
	for _, tt := range tests {
		if got := tt.spec.Label(); got != tt.want {
			t.Errorf("Label(%+v) = %q, want %q", tt.spec, got, tt.want)
		}
	}
	// Label is byte for byte the fmt formula it replaced: every label is
	// part of a fingerprint.
	fmtLabel := func(a dynring.AdversarySpec) string {
		var l string
		switch a.Kind {
		case "random":
			l = fmt.Sprintf("random(p=%g)", a.P)
		case "pin":
			l = fmt.Sprintf("pin(%d)", a.Pin)
		case "persistent":
			l = fmt.Sprintf("persistent(%d)", a.Edge)
		case "tinterval":
			l = fmt.Sprintf("tinterval(T=%d)", a.T)
		case "capped":
			l = fmt.Sprintf("capped(r=%d)", a.R)
		case "recurrent":
			l = fmt.Sprintf("recurrent(w=%d)", a.W)
		default:
			l = a.Kind
		}
		if a.Act > 0 && a.Act < 1 {
			l = fmt.Sprintf("act(%g)+%s", a.Act, l)
		}
		return l
	}
	floats := []float64{0, 0.5, 1, -1, 1e-7, 1e-300, 5e-324, 0.1 + 0.2, 1e21, 123456789, math.Inf(1), math.Inf(-1), math.NaN()}
	ints := []int{0, 1, -7, math.MaxInt64, math.MinInt64}
	for _, kind := range []string{"none", "random", "greedy", "frontier", "pin", "persistent", "prevent", "tinterval", "capped", "recurrent", "", "custom kind"} {
		for i, f := range floats {
			n := ints[i%len(ints)]
			for _, act := range floats {
				a := dynring.AdversarySpec{Kind: kind, P: f, Edge: n, Pin: n + 1, T: n - 1, R: n, W: n + 2, Act: act}
				if got, want := a.Label(), fmtLabel(a); got != want {
					t.Errorf("Label(%+v) = %q, fmt formula %q", a, got, want)
				}
			}
		}
	}

	// Labels must separate parameterizations: same kind, different params.
	a := dynring.AdversarySpec{Kind: "random", P: 0.4}.Label()
	b := dynring.AdversarySpec{Kind: "random", P: 0.5}.Label()
	if a == b {
		t.Fatalf("labels collide across parameters: %q", a)
	}
}

func TestAdversarySpecFactory(t *testing.T) {
	for _, kind := range []string{"none", "random", "greedy", "frontier", "pin", "persistent", "prevent"} {
		f, err := dynring.AdversarySpec{Kind: kind, P: 0.5}.Factory()
		if err != nil {
			t.Fatalf("Factory(%q): %v", kind, err)
		}
		if f(1) == nil {
			t.Fatalf("Factory(%q) built a nil adversary", kind)
		}
	}
	if _, err := (dynring.AdversarySpec{Kind: "bogus"}).Factory(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Act in (0,1) wraps in RandomActivation (distinct instance type is not
	// observable; at least exercise the path).
	f, err := dynring.AdversarySpec{Kind: "greedy", Act: 0.5}.Factory()
	if err != nil || f(7) == nil {
		t.Fatalf("activation wrap: %v", err)
	}
}

func TestScenarioSpecScenario(t *testing.T) {
	sp := dynring.ScenarioSpec{
		Size:      8,
		Landmark:  dynring.NoLandmark,
		Algorithm: "KnownNNoChirality",
		Model:     "fsync",
		Starts:    []int{0, 1},
		Orients:   []string{"cw", "CCW"},
		Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.3},
		Seed:      42,
	}
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Model != dynring.FSync || sc.Orients[1] != dynring.CCW {
		t.Fatalf("conversion wrong: %+v", sc)
	}
	if sc.AdversaryLabel != "random(p=0.3)" || sc.NewAdversary == nil {
		t.Fatalf("adversary not materialized: label=%q", sc.AdversaryLabel)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []dynring.ScenarioSpec{
		{Size: 8, Algorithm: "KnownNNoChirality", Model: "warp"},
		{Size: 8, Algorithm: "KnownNNoChirality", Orients: []string{"up"}},
		{Size: 8, Algorithm: "KnownNNoChirality", Adversary: &dynring.AdversarySpec{Kind: "bogus"}},
	} {
		if _, err := bad.Scenario(); err == nil {
			t.Fatalf("bad spec accepted: %+v", bad)
		}
	}
}

// TestSweepSpecRoundTrip: a spec survives JSON and expands to the same grid
// as the hand-built Sweep it mirrors.
func TestSweepSpecRoundTrip(t *testing.T) {
	spec := dynring.SweepSpec{
		Base:        dynring.ScenarioSpec{Landmark: 0},
		Algorithms:  []string{"LandmarkWithChirality"},
		Sizes:       []int{6, 9},
		Seeds:       []int64{1, 2, 3},
		Adversaries: []dynring.AdversarySpec{{Kind: "greedy"}, {Kind: "random", P: 0.4}},
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back dynring.SweepSpec
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	sw1, err := spec.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := back.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	g1, err := sw1.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sw2.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 12 || len(g2) != 12 {
		t.Fatalf("grid sizes %d, %d", len(g1), len(g2))
	}
	for i := range g1 {
		f1, err1 := g1[i].Fingerprint()
		f2, err2 := g2[i].Fingerprint()
		if err1 != nil || err2 != nil {
			t.Fatalf("fingerprints: %v, %v", err1, err2)
		}
		if f1 != f2 {
			t.Fatalf("scenario %d fingerprint drifts across JSON round trip", i)
		}
		if g1[i].Name != g2[i].Name {
			t.Fatalf("scenario %d names: %q vs %q", i, g1[i].Name, g2[i].Name)
		}
	}
}

func TestParseModel(t *testing.T) {
	for give, want := range map[string]dynring.Model{
		"":         dynring.ModelDefault,
		"default":  dynring.ModelDefault,
		"fsync":    dynring.FSync,
		"FSYNC":    dynring.FSync,
		"ssync-ns": dynring.SSyncNS,
		"ssync/pt": dynring.SSyncPT,
		"ssync-et": dynring.SSyncET,
	} {
		got, err := dynring.ParseModel(give)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v", give, got, err)
		}
	}
	if _, err := dynring.ParseModel("warp"); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("ParseModel(warp) err = %v", err)
	}
}

// TestScenarioSpecInverse: Scenario.Spec round-trips through
// ScenarioSpec.Scenario for every data field, and refuses scenarios whose
// identity is function-valued.
func TestScenarioSpecInverse(t *testing.T) {
	orig := dynring.Scenario{
		Name:             "x",
		Size:             8,
		Landmark:         dynring.NoLandmark,
		Algorithm:        "KnownNNoChirality",
		Model:            dynring.SSyncPT,
		UpperBound:       9,
		ExactSize:        8,
		Starts:           []int{0, 1},
		Orients:          []dynring.GlobalDir{dynring.CW, dynring.CCW},
		Seed:             42,
		MaxRounds:        77,
		StopWhenExplored: true,
		FairnessBound:    3,
		DetectCycles:     true,
	}
	sp, err := orig.Spec()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip diverges:\n%+v\n%+v", orig, back)
	}

	withFactory := orig
	withFactory.NewAdversary = dynring.RandomEdgesFactory(0.5)
	if _, err := withFactory.Spec(); err == nil {
		t.Fatal("live factory serialized")
	}
	withProtos := orig
	withProtos.NewProtocols = func() ([]dynring.Protocol, error) { return nil, nil }
	if _, err := withProtos.Spec(); err == nil {
		t.Fatal("protocol factory serialized")
	}
}

// TestAdversarySpecParameterValidation: wire specs reject parameters the
// CLI also rejects — no silent full-activation fallback on the HTTP path.
func TestAdversarySpecParameterValidation(t *testing.T) {
	for _, bad := range []dynring.AdversarySpec{
		{Kind: "random", P: 0.5, Act: 1.5},
		{Kind: "random", P: 0.5, Act: -0.1},
		{Kind: "greedy", Act: math.NaN()},
		{Kind: "pin", Pin: -1},
		{Kind: "persistent", Edge: -2},
	} {
		if _, err := bad.Factory(); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
	// 0 (unset) and 1 (explicit full activation) are both valid.
	for _, act := range []float64{0, 1} {
		if _, err := (dynring.AdversarySpec{Kind: "greedy", Act: act}).Factory(); err != nil {
			t.Fatalf("act=%g rejected: %v", act, err)
		}
	}
}

// parseAdversaryGood is every adversary kind, the zoo families and the
// activation wrapper included, as specs whose labels must round-trip.
var parseAdversaryGood = []dynring.AdversarySpec{
	{Kind: "none"},
	{Kind: "greedy"},
	{Kind: "frontier"},
	{Kind: "prevent"},
	{Kind: "random", P: 0.5},
	{Kind: "pin", Pin: 2},
	{Kind: "persistent", Edge: 3},
	{Kind: "tinterval", T: 2},
	{Kind: "capped", R: 2},
	{Kind: "recurrent", W: 3},
	{Kind: "capped", R: 1, Act: 0.7},
	{Kind: "greedy", Act: 0.9},
}

// parseAdversaryBad are labels ParseAdversary must reject.
var parseAdversaryBad = []string{
	"",
	"bogus",
	"random(q=0.5)",       // wrong parameter key
	"tinterval(T=0)",      // parameter out of range
	"capped(r=0)",         // parameter out of range
	"recurrent(w=-1)",     // parameter out of range
	"tinterval",           // zoo kinds need their parameter
	"capped(r=2",          // unbalanced parentheses
	"act(0.5)capped(r=2)", // act wrapper not closed with )+
	"act(2)+greedy",       // activation probability out of range
	"act(0)+greedy",       // would run fully active, as plain greedy
	"act(NaN)+greedy",     // would run fully active, as plain greedy
	"random(p=x)",         // unparseable value
}

// TestParseAdversary: the label grammar round-trips through
// AdversarySpec.Label for every kind, including the zoo families and the
// activation wrapper, and rejects malformed or invalid labels.
func TestParseAdversary(t *testing.T) {
	for _, spec := range parseAdversaryGood {
		got, err := dynring.ParseAdversary(spec.Label())
		if err != nil {
			t.Errorf("ParseAdversary(%q): %v", spec.Label(), err)
			continue
		}
		if !reflect.DeepEqual(got, spec) {
			t.Errorf("ParseAdversary(%q) = %+v, want %+v", spec.Label(), got, spec)
		}
	}

	// Keys match case-insensitively and bare values are accepted where the
	// canonical label uses them.
	if sp, err := dynring.ParseAdversary("tinterval(t=4)"); err != nil || sp.T != 4 {
		t.Errorf("lowercase key rejected: %+v, %v", sp, err)
	}
	if sp, err := dynring.ParseAdversary("pin(1)"); err != nil || sp.Pin != 1 {
		t.Errorf("bare pin value rejected: %+v, %v", sp, err)
	}

	for _, label := range parseAdversaryBad {
		if _, err := dynring.ParseAdversary(label); err == nil {
			t.Errorf("ParseAdversary(%q) accepted", label)
		}
	}
}

// FuzzParseAdversary: every label ParseAdversary accepts has a canonical
// label that parses back to the same label. The property is on labels,
// not specs: "act(1)+x" and "x" are one adversary with different Act
// values, and the label is what feeds the scenario fingerprint.
func FuzzParseAdversary(f *testing.F) {
	for _, spec := range parseAdversaryGood {
		f.Add(spec.Label())
	}
	for _, label := range parseAdversaryBad {
		f.Add(label)
	}
	f.Add("tinterval(t=4)")
	f.Add("pin(1)")
	f.Fuzz(func(t *testing.T, label string) {
		spec, err := dynring.ParseAdversary(label)
		if err != nil {
			return
		}
		canon := spec.Label()
		back, err := dynring.ParseAdversary(canon)
		if err != nil {
			t.Fatalf("ParseAdversary(%q) accepted as %+v, but its label %q does not parse: %v", label, spec, canon, err)
		}
		if got := back.Label(); got != canon {
			t.Fatalf("ParseAdversary(%q): label %q reparses to label %q", label, canon, got)
		}
		// A written activation probability below 1 must survive into the
		// canonical label, or the label (and the fingerprint) would name
		// a fully active adversary.
		if strings.HasPrefix(strings.TrimSpace(label), "act(") && spec.Act < 1 && !strings.Contains(canon, "act(") {
			t.Fatalf("ParseAdversary(%q) = %+v: label %q drops the activation wrapper", label, spec, canon)
		}
	})
}

// TestZooSpecsAreWireSafe: the zoo kinds survive the JSON round trip that
// carries them to a ringsimd service.
func TestZooSpecsAreWireSafe(t *testing.T) {
	spec := dynring.SweepSpec{
		Base: dynring.ScenarioSpec{Size: 9, Landmark: -1, Algorithm: "LandmarkFreeExactN"},
		Adversaries: []dynring.AdversarySpec{
			{Kind: "tinterval", T: 2},
			{Kind: "capped", R: 2},
			{Kind: "recurrent", W: 3},
		},
		Seeds: []int64{1, 2},
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back dynring.SweepSpec
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("zoo sweep spec does not round-trip JSON:\n%+v\n%+v", spec, back)
	}
	sw, err := back.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := sw.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 6 {
		t.Fatalf("grid has %d scenarios, want 6", len(scs))
	}
	for _, sc := range scs {
		if _, err := sc.Fingerprint(); err != nil {
			t.Errorf("%s: not fingerprintable: %v", sc.Name, err)
		}
	}
}

// explicitSpecJSON is the wire form of an explicit-list spec of n rows
// that all decode through the same allocations.
func explicitSpecJSON(t testing.TB, n int) []byte {
	sp := dynring.SweepSpec{Scenarios: make([]dynring.ScenarioSpec, n)}
	for i := range sp.Scenarios {
		sp.Scenarios[i] = dynring.ScenarioSpec{
			Name: fmt.Sprintf("row-%03d", i), Algorithm: "KnownNNoChirality", Size: 8 + i, Seed: int64(i),
			Orients:   []string{"cw", "cw"},
			Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.5},
		}
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeSweepSpecSizesScenariosOnce: decoding a 48-row spec costs the
// allocations of a 1-row spec plus 47 times what each further row adds.
// Growing the copied-out Scenarios by append would add six more (1, 2, 4,
// ..., 64 slots for 48 rows), so this pins the array at one allocation of
// exactly 48.
func TestDecodeSweepSpecSizesScenariosOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) float64 {
		data := explicitSpecJSON(t, n)
		return testing.AllocsPerRun(50, func() {
			sp, err := dynring.DecodeSweepSpec(data)
			if err != nil || len(sp.Scenarios) != n || cap(sp.Scenarios) != n {
				t.Fatalf("DecodeSweepSpec of %d rows: %d rows, cap %d, %v", n, len(sp.Scenarios), cap(sp.Scenarios), err)
			}
		})
	}
	one, two, many := allocs(1), allocs(2), allocs(48)
	if want := one + 47*(two-one); many != want {
		t.Fatalf("a 48-row spec allocated %.0f times, want %.0f (1 row: %.0f, each further row: %.0f)",
			many, want, one, two-one)
	}
}

// TestDecodeSweepSpecHintsResistHostileBodies: a 1 MiB body cannot make
// the decoder's capacity hints allocate more than about twice its size —
// not commas in an array of objects or of integers, not nested brackets,
// not commas inside a string element.
func TestDecodeSweepSpecHintsResistHostileBodies(t *testing.T) {
	const size = 1 << 20
	for name, tc := range map[string]struct {
		body []byte
		ok   bool
	}{
		"commas":           {append(append([]byte(`{"scenarios":[`), bytes.Repeat([]byte{','}, size)...), "]}"...), false},
		"commas in sizes":  {append(append([]byte(`{"sizes":[`), bytes.Repeat([]byte{','}, size)...), "]}"...), false},
		"nested brackets":  {append([]byte(`{"scenarios":[`), bytes.Repeat([]byte{'['}, size)...), false},
		"commas in string": {[]byte(`{"algorithms":["` + strings.Repeat(",", size) + `"]}`), true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dynring.DecodeSweepSpec(tc.body)
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Errorf("%s: DecodeSweepSpec error %v, want ok=%v", name, err, tc.ok)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(tc.body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(tc.body), got)
		}
	}
}
