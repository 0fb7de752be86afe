package telemetry

import (
	"crypto/rand"
	"encoding/hex"
)

// NewTraceID returns a fresh 16-hex-character trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway, but
		// tracing must never take the service down.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
