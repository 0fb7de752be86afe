package telemetry

import (
	"regexp"
	"testing"
)

func TestTraceIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewTraceID(), NewTraceID()
	if !re.MatchString(a) || !re.MatchString(b) {
		t.Fatalf("trace IDs %q, %q not 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("consecutive trace IDs collided: %q", a)
	}
}
