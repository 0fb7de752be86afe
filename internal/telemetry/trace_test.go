package telemetry

import (
	"fmt"
	"regexp"
	"testing"
	"time"
)

func span(i int) Span {
	return Span{Index: i, Name: fmt.Sprintf("s%d", i), Node: "local", Kind: "executed",
		Started: time.Unix(int64(i), 0), Finished: time.Unix(int64(i), 1)}
}

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

func TestRecordAndSnapshot(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.Register("sw-1", "abc", 0)
	if got := tr.TraceID("sw-1"); got != "abc" {
		t.Fatalf("TraceID = %q, want abc", got)
	}
	for i := 0; i < 3; i++ {
		tr.Record("sw-1", span(i))
	}
	id, spans, dropped, ok := tr.Snapshot("sw-1")
	if !ok || id != "abc" || dropped != 0 {
		t.Fatalf("Snapshot = (%q, dropped=%d, ok=%v)", id, dropped, ok)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Index != i {
			t.Errorf("span %d has index %d; order not preserved", i, s.Index)
		}
	}
	// Spans for unknown sweeps are discarded, not panics.
	tr.Record("nope", span(0))
	if _, _, _, ok := tr.Snapshot("nope"); ok {
		t.Fatal("snapshot of unregistered sweep reported ok")
	}
}

// TestSpanCapEviction pins the satellite requirement: at the span cap the
// buffer ring-overwrites oldest-first and reports the dropped count, so a
// huge grid costs bounded memory while the trace admits elision.
func TestSpanCapEviction(t *testing.T) {
	const cap = 8
	tr := NewTracer(4, cap)
	tr.Register("sw-1", "abc", 0)
	for i := 0; i < cap+5; i++ {
		tr.Record("sw-1", span(i))
	}
	_, spans, dropped, ok := tr.Snapshot("sw-1")
	if !ok {
		t.Fatal("sweep vanished")
	}
	if len(spans) != cap {
		t.Fatalf("got %d spans, want cap %d", len(spans), cap)
	}
	if dropped != 5 {
		t.Fatalf("dropped = %d, want 5", dropped)
	}
	// Oldest first: the retained window is [5, cap+5).
	for i, s := range spans {
		if want := i + 5; s.Index != want {
			t.Errorf("span %d has index %d, want %d", i, s.Index, want)
		}
	}
}

func TestSweepCapEviction(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Register("sw-1", "a", 0)
	tr.Register("sw-2", "b", 0)
	tr.Register("sw-3", "c", 0) // evicts sw-1, the oldest
	if _, _, _, ok := tr.Snapshot("sw-1"); ok {
		t.Fatal("oldest sweep not evicted at sweep cap")
	}
	for _, id := range []string{"sw-2", "sw-3"} {
		if _, _, _, ok := tr.Snapshot(id); !ok {
			t.Fatalf("sweep %s evicted prematurely", id)
		}
	}
}

func TestDrop(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Register("sw-1", "a", 0)
	tr.Drop("sw-1")
	if _, _, _, ok := tr.Snapshot("sw-1"); ok {
		t.Fatal("dropped sweep still snapshottable")
	}
	// The freed slot must not count against the sweep cap.
	tr.Register("sw-2", "b", 0)
	tr.Register("sw-3", "c", 0)
	for _, id := range []string{"sw-2", "sw-3"} {
		if _, _, _, ok := tr.Snapshot(id); !ok {
			t.Fatalf("sweep %s missing after Drop freed a slot", id)
		}
	}
}

// TestRegisterSizesSpanBuffer: a sweep registered with its row count
// records one span per row without growing its buffer, and the buffer
// never starts larger than the span cap.
func TestRegisterSizesSpanBuffer(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.Register("sw-big", "a", 1<<20)
	if got := cap(tr.sweeps["sw-big"].spans); got != 8 {
		t.Fatalf("a huge grid's buffer starts at %d spans, want the cap 8", got)
	}
	// AllocsPerRun calls its function twice: 2 x 12 Records fill the 24
	// rows registered.
	tr = NewTracer(4, 64)
	tr.Register("sw-1", "a", 24)
	s := span(1)
	if n := testing.AllocsPerRun(1, func() {
		for range 12 {
			tr.Record("sw-1", s)
		}
	}); n != 0 {
		t.Fatalf("Record allocated %.0f times within the registered row count", n)
	}
}
