// Package wire is the shared core of the hand-written JSON codec on the
// sweep service's hot path: an appender for the few JSON value shapes the
// hot wire types use, and a Lexer that reads the canonical form those
// appenders (and encoding/json) produce.
//
// The codec never defines semantics of its own. Appenders emit exactly the
// bytes encoding/json emits for the same value, delegating any string that
// needs escaping to json.Marshal. The Lexer is a fast path only: it accepts
// a strict subset of JSON — no escapes, no non-ASCII bytes in strings,
// integers without fraction or exponent, exactly-named and non-repeated
// keys — and fails, stickily, on anything else. A failed fast parse hands
// the same bytes to encoding/json, which stays the definition of what is
// accepted, what it decodes to, and the error text of what is not. The
// per-type encoders and parsers live next to their types (sim.Result,
// dynring.ResultRow and the dynring spec types).
package wire
