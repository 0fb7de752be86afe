package agent

import "testing"

// step feeds one activation into the core the way a protocol's Step does,
// with the given view, and records the attempted decision.
func step(c *Core, v View, d Decision) {
	c.Begin(&v)
	c.Attempted(d)
}

func TestCoreTraversalAccounting(t *testing.T) {
	var c Core
	// First activation: try left.
	step(&c, View{}, Move(Left))
	if c.Ttime != 0 || c.Tsteps != 0 {
		t.Fatalf("after first activation: Ttime=%d Tsteps=%d", c.Ttime, c.Tsteps)
	}
	// The move succeeded.
	step(&c, View{Moved: true}, Move(Left))
	if c.Ttime != 1 || c.Tsteps != 1 || c.Esteps != 1 || c.Pos() != -1 {
		t.Fatalf("after success: Ttime=%d Tsteps=%d Esteps=%d pos=%d", c.Ttime, c.Tsteps, c.Esteps, c.Pos())
	}
	// Next move succeeded too, then one to the right.
	step(&c, View{Moved: true}, Move(Right))
	step(&c, View{Moved: true}, Move(Right))
	if c.Pos() != -1 || c.Tsteps != 3 {
		t.Fatalf("pos=%d Tsteps=%d, want -1, 3", c.Pos(), c.Tsteps)
	}
	if c.Tnodes() != 2 {
		t.Fatalf("Tnodes=%d, want span 2 (min -2, max 0)", c.Tnodes())
	}
}

func TestCoreBlockedStreak(t *testing.T) {
	var c Core
	step(&c, View{}, Move(Left))
	// Blocked on the left port for three rounds.
	for i := 1; i <= 3; i++ {
		step(&c, View{OnPort: true, PortDir: Left}, Move(Left))
		if c.Btime != i {
			t.Fatalf("round %d: Btime=%d, want %d", i, c.Btime, i)
		}
	}
	// The agent switches to the right port (direction change): streak
	// restarts at 1.
	step(&c, View{OnPort: true, PortDir: Right}, Move(Right))
	if c.Btime != 1 {
		t.Fatalf("after port switch: Btime=%d, want 1", c.Btime)
	}
	// Move succeeds: streak cleared.
	step(&c, View{Moved: true}, Move(Right))
	if c.Btime != 0 {
		t.Fatalf("after success: Btime=%d, want 0", c.Btime)
	}
}

func TestCoreStayDoesNotDoubleCount(t *testing.T) {
	var c Core
	step(&c, View{}, Move(Right))
	step(&c, View{Moved: true}, Stay)
	// A stale Moved flag after a Stay must not count again.
	step(&c, View{Moved: true}, Stay)
	if c.Tsteps != 1 || c.Pos() != 1 {
		t.Fatalf("Tsteps=%d pos=%d, want 1, 1", c.Tsteps, c.Pos())
	}
}

func TestCoreLandmarkLearning(t *testing.T) {
	var c Core
	// Start at the landmark, walk a full loop of 5 to the right.
	step(&c, View{AtLandmark: true}, Move(Right))
	for i := 0; i < 4; i++ {
		step(&c, View{Moved: true}, Move(Right))
		if c.KnowsN() {
			t.Fatalf("learned n after only %d moves", i+1)
		}
	}
	step(&c, View{Moved: true, AtLandmark: true}, Move(Right))
	if !c.KnowsN() || c.Size() != 5 {
		t.Fatalf("KnowsN=%v Size=%d, want true, 5", c.KnowsN(), c.Size())
	}
	if c.Ntime() != 0 {
		t.Fatalf("Ntime at discovery = %d, want 0", c.Ntime())
	}
	step(&c, View{Moved: true}, Move(Right))
	if c.Ntime() != 1 {
		t.Fatalf("Ntime one round later = %d, want 1", c.Ntime())
	}
}

func TestCoreLandmarkNoFalseLoop(t *testing.T) {
	var c Core
	// Visit the landmark, oscillate back and forth over it: the net
	// displacement is zero each revisit, so no size may be learned.
	step(&c, View{AtLandmark: true}, Move(Right))
	step(&c, View{Moved: true}, Move(Left))
	step(&c, View{Moved: true, AtLandmark: true}, Move(Right))
	step(&c, View{Moved: true}, Move(Left))
	step(&c, View{Moved: true, AtLandmark: true}, Move(Right))
	if c.KnowsN() {
		t.Fatal("oscillation over the landmark must not teach the ring size")
	}
}

func TestCoreEnterExploreResets(t *testing.T) {
	var c Core
	step(&c, View{}, Move(Left))
	step(&c, View{Moved: true}, Move(Left))
	step(&c, View{OnPort: true, PortDir: Left}, Move(Left))
	if c.Etime != 2 || c.Esteps != 1 || c.Btime != 1 {
		t.Fatalf("pre-reset: Etime=%d Esteps=%d Btime=%d", c.Etime, c.Esteps, c.Btime)
	}
	c.EnterExplore(false)
	if c.Etime != 0 || c.Esteps != 0 || c.Btime != 0 {
		t.Fatalf("post-reset: Etime=%d Esteps=%d Btime=%d", c.Etime, c.Esteps, c.Btime)
	}
	// keepSteps variant preserves Esteps only.
	c.Esteps = 7
	c.Etime = 3
	c.EnterExplore(true)
	if c.Esteps != 7 || c.Etime != 0 {
		t.Fatalf("keepSteps: Etime=%d Esteps=%d", c.Etime, c.Esteps)
	}
}

func TestCorePredicates(t *testing.T) {
	var c Core
	if !c.Meeting(&View{OthersInNode: 1}) {
		t.Error("Meeting: other agent in interior should trigger")
	}
	if c.Meeting(&View{OnPort: true, OthersInNode: 1}) {
		t.Error("Meeting: observer on a port should not trigger")
	}
	if !c.Catches(&View{OthersOnLeftPort: 1}, Left) {
		t.Error("Catches: agent on the left port, moving left, should trigger")
	}
	if c.Catches(&View{OthersOnRightPort: 1}, Left) {
		t.Error("Catches: agent on the wrong port should not trigger")
	}
	if c.Catches(&View{OnPort: true, PortDir: Right, OthersOnLeftPort: 1}, Left) {
		t.Error("Catches: observer on a port should not trigger")
	}
	if !c.Caught(&View{OnPort: true, PortDir: Left, OthersInNode: 1}) {
		t.Error("Caught: on port after failed move with other in node should trigger")
	}
	if c.Caught(&View{OnPort: true, PortDir: Left, Moved: true, OthersInNode: 1}) {
		t.Error("Caught: a successful move should not trigger")
	}
}

func TestDirOpposite(t *testing.T) {
	if Left.Opposite() != Right || Right.Opposite() != Left || NoDir.Opposite() != NoDir {
		t.Fatal("Opposite is broken")
	}
	if Left.String() != "left" || Right.String() != "right" || NoDir.String() != "nil" {
		t.Fatal("Dir.String is broken")
	}
}
