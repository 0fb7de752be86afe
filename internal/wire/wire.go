package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"
)

// AppendString appends s as encoding/json encodes a string. Plain printable
// ASCII without characters JSON or HTML escaping touches is copied inline;
// any other string is delegated to json.Marshal, so escaping rules (HTML
// escapes, U+2028/U+2029, invalid UTF-8) have one definition.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Marshal a copy: handing s itself to json.Marshal would make
			// every caller's strings, and the values holding them, escape
			// to the heap, fast path included.
			b, _ := json.Marshal(strings.Clone(s)) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendInts appends v as encoding/json encodes a []int or []int64: null
// for a nil slice, [] for an empty one.
func AppendInts[T int | int64](dst []byte, v []T) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// AppendStrings appends v as encoding/json encodes a non-nil []string.
func AppendStrings(dst []byte, v []string) []byte {
	dst = append(dst, '[')
	for i, s := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// decimal that reads back as f, in 'f' form, or in 'e' form when |f| is
// below 1e-6 or at least 1e21, with a one-digit negative exponent written
// without its leading zero (1e-7, not 1e-07). NaN and ±Inf have no JSON
// form; for them AppendFloat returns dst and json.Marshal's error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// Lexer reads canonical JSON from a byte slice. Every method either
// consumes the token it names or marks the lexer failed; once failed, the
// lexer stays failed and returns zero values, so a parser can run to the
// end and check End once.
type Lexer struct {
	data []byte
	pos  int
	bad  bool
}

// NewLexer returns a lexer over data.
func NewLexer(data []byte) Lexer { return Lexer{data: data} }

// Fail marks the lexer failed: the input is outside the fast path.
func (l *Lexer) Fail() { l.bad = true }

// End reports whether parsing succeeded and only whitespace remains.
func (l *Lexer) End() bool {
	l.ws()
	return !l.bad && l.pos == len(l.data)
}

func (l *Lexer) ws() {
	for l.pos < len(l.data) {
		switch l.data[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

// Expect consumes the byte c, the next non-whitespace byte.
func (l *Lexer) Expect(c byte) {
	l.ws()
	if l.bad || l.pos >= len(l.data) || l.data[l.pos] != c {
		l.bad = true
		return
	}
	l.pos++
}

// Next advances to element i of an object or array whose opening bracket
// is already consumed, and reports whether there is one: it consumes the
// closing byte and returns false at the end, consumes the separating comma
// before every element but the first, and returns false on failure.
func (l *Lexer) Next(i int, closing byte) bool {
	l.ws()
	if l.bad {
		return false
	}
	if l.pos < len(l.data) && l.data[l.pos] == closing {
		l.pos++
		return false
	}
	if i > 0 {
		l.Expect(',')
	}
	return !l.bad
}

// Field records that the object member with index bit (< 64) was read,
// failing on a repeated member: encoding/json's last-one-wins and merge
// rules for duplicates are left to encoding/json.
func (l *Lexer) Field(seen *uint64, bit uint) {
	if *seen&(1<<bit) != 0 {
		l.bad = true
	}
	*seen |= 1 << bit
}

// plain marks the bytes a fast-path string may hold unescaped: printable
// ASCII except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// raw consumes a string without escapes and returns its contents.
func (l *Lexer) raw() []byte {
	l.Expect('"')
	if l.bad {
		return nil
	}
	end := bytes.IndexByte(l.data[l.pos:], '"')
	if end < 0 {
		l.bad = true
		return nil
	}
	s := l.data[l.pos : l.pos+end]
	for _, c := range s {
		if !plain[c] {
			l.bad = true
			return nil
		}
	}
	l.pos += end + 1
	return s
}

// Key consumes an object member's name and the colon after it. The
// returned bytes alias the input.
func (l *Lexer) Key() []byte {
	k := l.raw()
	l.Expect(':')
	return k
}

// String consumes a string value.
func (l *Lexer) String() string {
	if b := l.raw(); !l.bad {
		return string(b)
	}
	return ""
}

// Intern consumes a string value as String does, but returns the string
// names maps it to, without allocating, when names holds it.
func (l *Lexer) Intern(names map[string]string) string {
	b := l.raw()
	if l.bad {
		return ""
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	return string(b)
}

// null consumes a null literal if one comes next and reports whether it
// did.
func (l *Lexer) null() bool {
	l.ws()
	if !l.bad && bytes.HasPrefix(l.data[l.pos:], []byte("null")) {
		l.pos += 4
		return true
	}
	return false
}

// Bool consumes a true or false literal.
func (l *Lexer) Bool() bool {
	l.ws()
	switch {
	case l.bad:
	case bytes.HasPrefix(l.data[l.pos:], []byte("true")):
		l.pos += 4
		return true
	case bytes.HasPrefix(l.data[l.pos:], []byte("false")):
		l.pos += 5
	default:
		l.bad = true
	}
	return false
}

// skip consumes c if it comes next (no whitespace skipped) and reports
// whether it did.
func (l *Lexer) skip(c byte) bool {
	if !l.bad && l.pos < len(l.data) && l.data[l.pos] == c {
		l.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (l *Lexer) digits() int {
	start := l.pos
	for l.pos < len(l.data) && l.data[l.pos] >= '0' && l.data[l.pos] <= '9' {
		l.pos++
	}
	return l.pos - start
}

// Int64 consumes an integer: an optional minus sign and at most 19 digits,
// without leading zeros, in int64 range. A fraction, an exponent or a 20th
// digit is left unconsumed, so the next token fails; out-of-range values
// fail here. Either way the slow path, which owns overflow and type
// errors, decides.
func (l *Lexer) Int64() int64 {
	l.ws()
	neg := l.skip('-')
	start := l.pos
	var v uint64
	if !l.skip('0') {
		for l.pos < len(l.data) && l.pos-start < 19 && l.data[l.pos] >= '0' && l.data[l.pos] <= '9' {
			v = v*10 + uint64(l.data[l.pos]-'0')
			l.pos++
		}
	}
	if l.bad || l.pos == start || v > math.MaxInt64+1 || (!neg && v > math.MaxInt64) {
		l.bad = true
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// Int consumes an integer that fits an int.
func (l *Lexer) Int() int {
	v := l.Int64()
	if int64(int(v)) != v {
		l.bad = true
	}
	return int(v)
}

// Float consumes a JSON number as a float64, converted exactly as
// encoding/json converts it.
func (l *Lexer) Float() float64 {
	l.ws()
	start := l.pos
	l.skip('-')
	if !l.skip('0') && l.digits() == 0 {
		l.bad = true
	}
	if l.skip('.') && l.digits() == 0 {
		l.bad = true
	}
	if l.skip('e') || l.skip('E') {
		if !l.skip('+') {
			l.skip('-')
		}
		if l.digits() == 0 {
			l.bad = true
		}
	}
	if l.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(l.data[start:l.pos]), 64)
	if err != nil {
		l.bad = true
	}
	return f
}

// Ints consumes an array of ints. null reads as a nil slice and [] as an
// empty one, as in encoding/json.
func (l *Lexer) Ints() []int {
	if l.null() {
		return nil
	}
	out := make([]int, 0, l.elems(intOpens))
	for i := 0; l.Next(i, ']'); i++ {
		out = append(out, l.Int())
	}
	return out
}

// Int64s is Ints for int64 elements.
func (l *Lexer) Int64s() []int64 {
	if l.null() {
		return nil
	}
	out := make([]int64, 0, l.elems(intOpens))
	for i := 0; l.Next(i, ']'); i++ {
		out = append(out, l.Int64())
	}
	return out
}

// intOpens are the bytes an integer element can open with.
const intOpens = "-0123456789"

// elems consumes an array's opening bracket and returns a capacity hint
// for its elements: the number of its top-level elements whose first byte
// is in opens. It skips strings and nested arrays and objects, so neither
// commas inside them nor elements of another kind count: the hint never
// exceeds what a successful decode of the same bytes would hold, and a
// hostile body cannot inflate it.
func (l *Lexer) elems(opens string) int {
	l.Expect('[')
	if l.bad {
		return 0
	}
	n, depth, start := 0, 0, true
	for i := l.pos; i < len(l.data); i++ {
		c := l.data[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if start && strings.IndexByte(opens, c) >= 0 {
			n++
		}
		start = false
		switch c {
		case '"':
			for i++; i < len(l.data) && l.data[i] != '"'; i++ {
				if l.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			start = depth == 0
		}
	}
	return n
}

// Strings consumes an array of strings; [] reads as an empty slice.
func (l *Lexer) Strings() []string {
	out := make([]string, 0, l.elems(`"`))
	for i := 0; l.Next(i, ']'); i++ {
		out = append(out, l.String())
	}
	return out
}

// AppendTime appends t as time.Time.MarshalJSON encodes it: an RFC 3339
// timestamp with nanoseconds and the zone offset, quoted. encoding/json
// refuses times MarshalJSON cannot represent (a year outside [0,9999], a
// zone offset of a day or more); AppendTime writes null for those.
func AppendTime(dst []byte, t time.Time) []byte {
	out, err := t.AppendText(append(dst, '"'))
	if err != nil {
		return append(dst, "null"...)
	}
	return append(out, '"')
}

// Time consumes a string holding an RFC 3339 timestamp and parses it as
// time.Time.UnmarshalJSON does. null, strings with escapes and timestamps
// UnmarshalJSON rejects fail the lexer.
func (l *Lexer) Time() time.Time {
	var t time.Time
	if b := l.raw(); !l.bad && t.UnmarshalText(b) != nil {
		l.bad = true
	}
	return t
}
