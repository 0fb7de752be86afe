package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"
)

// TestAppendStringMatchesEncodingJSON: plain strings are copied inline and
// everything else is escaped exactly as json.Marshal escapes it.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", "KnownNNoChirality/n=8/random(p=0.5)/seed=3",
		`quote"`, `back\slash`, "<script>", "a<b", "a>b", "a&b", "tab\t", "nl\n", "\x00", "\x7f",
		"line\u2028sep\u2029", "héllo", "\xff\xfe invalid utf-8", "emoji 🙂",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

// TestAppendInts: null for nil, [] for empty, as encoding/json, for
// []int and []int64.
func TestAppendInts(t *testing.T) {
	check := func(got []byte, v any) {
		if want, _ := json.Marshal(v); !bytes.Equal(got, want) {
			t.Errorf("AppendInts(%#v) = %s, want %s", v, got, want)
		}
	}
	for _, v := range [][]int{nil, {}, {0}, {-1, 2, math.MinInt64, math.MaxInt64}} {
		check(AppendInts(nil, v), v)
	}
	for _, v := range [][]int64{nil, {}, {0}, {-1, 2, math.MinInt64, math.MaxInt64}} {
		check(AppendInts(nil, v), v)
	}
}

// TestAppendFloatMatchesEncodingJSON: every float's bytes are
// json.Marshal's — both sides of the 1e-6 and 1e21 switches to exponent
// form, one- and multi-digit exponents, -0, subnormals and random bit
// patterns — and NaN and ±Inf fail with json.Marshal's error.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.5, -0.25, 1, 0.1, 123456.789, 1e-7, 1e-6,
		math.Nextafter(1e-6, 0), 1e-10, 1.5e-300, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e100,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 1 << 53}
	for i := uint64(0); i < 5000; i++ {
		// A multiplicative hash of i spreads the bit patterns over every
		// exponent; the non-finite ones are skipped here.
		if f := math.Float64frombits(i * 0x9e3779b97f4a7c15); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		want, _ := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("AppendFloat(%g) = %s, %v; want x%s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if err == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("AppendFloat(%g) = %q, %v; want x and %v", f, got, err, want)
		}
	}
}

// TestAppendStrings: a []string's bytes are json.Marshal's, escapes
// included.
func TestAppendStrings(t *testing.T) {
	for _, v := range [][]string{{}, {""}, {"cw", "ccw"}, {"a<b", "\\", "\xff"}} {
		want, _ := json.Marshal(v)
		if got := AppendStrings(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendStrings(%q) = %s, want %s", v, got, want)
		}
	}
}

// TestLexerNumbers: on these literals the fast path reads exactly the
// numbers encoding/json reads, to the same value, and fails every other
// one.
func TestLexerNumbers(t *testing.T) {
	ints := []string{
		"0", "-0", "7", "-7", "10", "123456789012345678", "-123456789012345678",
		strconv.FormatInt(math.MaxInt64, 10), strconv.FormatInt(math.MinInt64, 10),
		"9223372036854775808", "-9223372036854775809", "99999999999999999999",
		"01", "-", "1.5", "1e3", "1E3", "+1", " 5 ", "0x10", "",
	}
	for _, in := range ints {
		var want int64
		werr := json.Unmarshal([]byte(in), &want)
		l := NewLexer([]byte(in))
		got := l.Int64()
		if l.End() != (werr == nil) {
			t.Errorf("Int64(%q): fast ok=%v, encoding/json err=%v", in, l.End(), werr)
		} else if werr == nil && got != want {
			t.Errorf("Int64(%q) = %d, encoding/json %d", in, got, want)
		}
	}
	floats := []string{
		"0", "0.5", "-0.5", "1e-7", "1E-7", "1e+21", "1.5e300", "1e400", "-1e400",
		"0.1", "123", "4.9e-324", ".5", "5.", "1e", "1e+", "-", "00.5", "NaN", "Inf",
	}
	for _, in := range floats {
		var want float64
		werr := json.Unmarshal([]byte(in), &want)
		l := NewLexer([]byte(in))
		got := l.Float()
		if l.End() != (werr == nil) {
			t.Errorf("Float(%q): fast ok=%v, encoding/json err=%v", in, l.End(), werr)
		} else if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float(%q) = %v, encoding/json %v", in, got, want)
		}
	}
}

// TestLexerStrings: escapes, control and non-ASCII bytes leave the fast
// path; plain strings read back unchanged.
func TestLexerStrings(t *testing.T) {
	for in, ok := range map[string]bool{
		`"plain <&> text"`: true,
		`""`:               true,
		`"a\"b"`:           false,
		`"a\u0041"`:        false,
		"\"h\xc3\xa9\"":    false,
		"\"tab\t\"":        false,
		`"unterminated`:    false,
		`plain`:            false,
	} {
		l := NewLexer([]byte(in))
		got := l.String()
		if l.End() != ok {
			t.Errorf("String(%s): fast ok=%v, want %v", in, l.End(), ok)
			continue
		}
		if ok {
			var want string
			if err := json.Unmarshal([]byte(in), &want); err != nil || got != want {
				t.Errorf("String(%s) = %q, encoding/json %q (%v)", in, got, want, err)
			}
		}
		l = NewLexer([]byte(in))
		if interned := l.Intern(nil); l.End() != ok || interned != got {
			t.Errorf("Intern(%s) = %q ok=%v, String %q ok=%v", in, interned, l.End(), got, ok)
		}
	}
}

// TestLexerIntern: a string the table holds comes back without
// allocating; any other string is read as String reads it.
func TestLexerIntern(t *testing.T) {
	names := map[string]string{"greedy": "greedy"}
	for in, want := range map[string]float64{`"greedy"`: 0, `"other"`: 1} {
		allocs := testing.AllocsPerRun(20, func() {
			l := NewLexer([]byte(in))
			if got := l.Intern(names); !l.End() || got != in[1:len(in)-1] {
				t.Fatalf("Intern(%s) = %q ok=%v", in, got, l.End())
			}
		})
		if allocs != want {
			t.Errorf("Intern(%s) allocated %.0f times, want %.0f", in, allocs, want)
		}
	}
}

// TestLexerContainers: separators, empty and null arrays, and trailing
// commas.
func TestLexerContainers(t *testing.T) {
	for in, want := range map[string][]int{
		`[]`:        {},
		`null`:      nil,
		`[1,2, 3 ]`: {1, 2, 3},
	} {
		l := NewLexer([]byte(in))
		got := l.Ints()
		if !l.End() || (got == nil) != (want == nil) || len(got) != len(want) {
			t.Errorf("Ints(%s) = %#v ok=%v, want %#v", in, got, l.End(), want)
		}
	}
	for _, in := range []string{`[1,]`, `[,1]`, `[1 2]`, `[1`, `{}`} {
		l := NewLexer([]byte(in))
		l.Ints()
		if l.End() {
			t.Errorf("Ints(%s) accepted", in)
		}
	}
	var seen uint64
	l := NewLexer([]byte(`{"a":1,"a":2}`))
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		l.Key()
		l.Field(&seen, 0)
		l.Int()
	}
	if l.End() {
		t.Error("repeated key accepted")
	}
}

// TestLexerElementHints: the capacity hint of an array counts its
// top-level elements that open with a byte of their kind — '"' for
// Strings, a digit or '-' for Ints and Int64s, '{' here to exercise
// nesting — and
// nothing inside strings or nested values, nothing of another kind and
// nothing past the array, so it never exceeds what a successful decode of
// the same bytes holds. The decoders size their slices by it exactly.
func TestLexerElementHints(t *testing.T) {
	for _, tc := range []struct {
		opens, in string
		want      int
	}{
		{"{", `[]`, 0},
		{"{", ` [ ] `, 0},
		{"{", `[{}]`, 1},
		{"{", `[ {} , {"a":[{},{}]} ,{"b":"x,{"}]`, 3},
		{"{", `[{"s":"]"},{}]`, 2},
		{"{", `[{"s":"\"]{"},{}]`, 2},
		{"{", `[{"s":"\\"},{}]`, 2},
		{"{", `["\\\",{}",{}]`, 1},
		{"{", `[1,"{",[{}],null,{}]`, 1},
		{"{", `[,,,,]`, 0},
		{"{", `[[[[[[`, 0},
		{"{", `[{},{}] [{},{}]`, 2},
		{"{", `[{},{`, 2},
		{"{", `{}`, 0},
		{`"`, `["a","b"]`, 2},
		{`"`, `["a,b,c,d"]`, 1},
		{`"`, `["a\",\""]`, 1},
		{`"`, `["[","]",1]`, 2},
		{intOpens, `[1,-2, 3 ]`, 3},
		{intOpens, `[,,,,]`, 0},
		{intOpens, `[1,"2,3",[4,5]]`, 1},
	} {
		l := NewLexer([]byte(tc.in))
		if got := l.elems(tc.opens); got != tc.want {
			t.Errorf("elems(%q) of %s = %d, want %d", tc.opens, tc.in, got, tc.want)
		}
	}
	for _, in := range []string{`[]`, `["a", "b,c"]`} {
		l := NewLexer([]byte(in))
		if got := l.Strings(); !l.End() || got == nil || cap(got) != len(got) {
			t.Errorf("Strings(%s) = %#v with cap %d", in, got, cap(got))
		}
	}
	for _, in := range []string{`[]`, `[1, -2, 3]`} {
		l := NewLexer([]byte(in))
		if got := l.Ints(); !l.End() || got == nil || cap(got) != len(got) {
			t.Errorf("Ints(%s) = %#v with cap %d", in, got, cap(got))
		}
		l = NewLexer([]byte(in))
		if got := l.Int64s(); !l.End() || got == nil || cap(got) != len(got) {
			t.Errorf("Int64s(%s) = %#v with cap %d", in, got, cap(got))
		}
	}
}

// TestTimeMatchesEncodingJSON: AppendTime writes MarshalJSON's bytes, and
// Lexer.Time reads them back to UnmarshalJSON's value.
func TestTimeMatchesEncodingJSON(t *testing.T) {
	for _, ts := range []time.Time{
		{}, time.Date(2026, 10, 17, 8, 30, 1, 123456789, time.UTC),
		time.Date(2026, 10, 17, 8, 30, 1, 500, time.FixedZone("", 5*3600+30*60)),
		time.Date(1, 2, 3, 4, 5, 6, 0, time.FixedZone("EST", -5*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	} {
		want, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendTime(nil, ts)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, want %s", ts, got, want)
		}
		var oracle time.Time
		if err := json.Unmarshal(got, &oracle); err != nil {
			t.Fatal(err)
		}
		l := NewLexer(got)
		if back := l.Time(); !l.End() || !back.Equal(oracle) || back.Location().String() != oracle.Location().String() {
			t.Errorf("Time(%s) = %v (ok=%v), encoding/json %v", got, back, l.End(), oracle)
		}
	}
}
