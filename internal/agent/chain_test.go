package agent

import (
	"strings"
	"testing"
)

// chained runs a Step on Core in the shape the MaxChain doc prescribes,
// with a scripted guard evaluation: eval reports a same-round transition
// until it has been called final times.
type chained struct {
	c     Core
	final int
	calls int
}

func (p *chained) Step(v *View) (Decision, error) {
	p.c.Begin(v)
	for range MaxChain {
		if d, final := p.eval(v); final {
			return p.c.Attempted(d), nil
		}
	}
	return Decision{}, GuardCycle(p.State())
}

func (p *chained) eval(*View) (Decision, bool) {
	p.calls++
	return Move(Right), p.calls == p.final
}

func (p *chained) State() string { return "Loop" }

func TestGuardCycle(t *testing.T) {
	p := &chained{final: -1} // never final: a guard cycle
	_, err := p.Step(&View{})
	if err == nil {
		t.Fatal("expected guard-cycle error")
	}
	if !strings.Contains(err.Error(), `"Loop"`) || !strings.Contains(err.Error(), "32") {
		t.Fatalf("error should name the state and the bound: %v", err)
	}
	if p.calls != MaxChain {
		t.Fatalf("eval ran %d times, want MaxChain=%d", p.calls, MaxChain)
	}
}

func TestChainRecordsAttempt(t *testing.T) {
	p := &chained{final: 3}
	d, err := p.Step(&View{})
	if err != nil {
		t.Fatal(err)
	}
	if p.calls != 3 || d.Dir != Right {
		t.Fatalf("calls=%d decision=%+v", p.calls, d)
	}
	// The attempt must be recorded: a follow-up successful move advances
	// the walk coordinate.
	p.c.Begin(&View{Moved: true})
	if p.c.Pos() != 1 {
		t.Fatalf("pos=%d, want 1", p.c.Pos())
	}
	// A termination clears the attempt: nothing moves afterwards.
	if got := p.c.Attempted(Terminate); got != Terminate {
		t.Fatalf("Attempted returned %+v, want its argument", got)
	}
	p.c.Begin(&View{Moved: true})
	if p.c.Pos() != 1 {
		t.Fatalf("pos=%d after a terminate attempt, want 1", p.c.Pos())
	}
}

func TestCatchesAny(t *testing.T) {
	var c Core
	c.Begin(&View{})
	if side, ok := c.CatchesAny(&View{OthersOnLeftPort: 1}); !ok || side != Left {
		t.Fatalf("left port catch = (%v, %v)", side, ok)
	}
	// Consumed for the rest of the activation.
	if _, ok := c.CatchesAny(&View{OthersOnLeftPort: 1}); ok {
		t.Fatal("event not consumed")
	}
	c.Begin(&View{})
	if side, ok := c.CatchesAny(&View{OthersOnRightPort: 1}); !ok || side != Right {
		t.Fatalf("right port catch = (%v, %v)", side, ok)
	}
	c.Begin(&View{})
	if _, ok := c.CatchesAny(&View{OnPort: true, OthersOnLeftPort: 1}); ok {
		t.Fatal("an observer on a port cannot catch")
	}
	if _, ok := c.CatchesAny(&View{}); ok {
		t.Fatal("no ported agent, no catch")
	}
	// CatchesAny and Catches share the consumption slot.
	c.Begin(&View{})
	if !c.Catches(&View{OthersOnLeftPort: 1}, Left) {
		t.Fatal("directional catch should fire")
	}
	if _, ok := c.CatchesAny(&View{OthersOnLeftPort: 1}); ok {
		t.Fatal("consumption must be shared with Catches")
	}
}

func TestEventConsumptionResetsPerActivation(t *testing.T) {
	var c Core
	v := &View{OthersInNode: 1}
	c.Begin(v)
	if !c.Meeting(v) {
		t.Fatal("first meeting should fire")
	}
	if c.Meeting(v) {
		t.Fatal("second query in the same activation must not fire")
	}
	c.Begin(v)
	if !c.Meeting(v) {
		t.Fatal("the next activation carries a fresh event")
	}
}

func TestCoreReset(t *testing.T) {
	var c Core
	c.Begin(&View{AtLandmark: true})
	c.Attempted(Move(Right))
	c.Begin(&View{Moved: true})
	c.Attempted(Move(Right))
	if c.Ttime == 0 || c.Tsteps == 0 {
		t.Fatal("setup failed")
	}
	c.Reset()
	if c.Ttime != 0 || c.Tsteps != 0 || c.Pos() != 0 || c.KnowsN() {
		t.Fatalf("reset incomplete: %+v", c)
	}
	// A fresh activation counts from zero again.
	c.Begin(&View{})
	if c.Ttime != 0 {
		t.Fatalf("Ttime after reset = %d, want 0", c.Ttime)
	}
}

func TestDecisionHelpers(t *testing.T) {
	if Stay.Dir != NoDir || Stay.Terminate {
		t.Fatal("Stay is wrong")
	}
	if d := Move(Left); d.Dir != Left || d.Terminate {
		t.Fatal("Move is wrong")
	}
	if !Terminate.Terminate {
		t.Fatal("Terminate is wrong")
	}
	v := View{OthersOnLeftPort: 2, OthersOnRightPort: 1}
	if v.OthersOnPort(Left) != 2 || v.OthersOnPort(Right) != 1 || v.OthersOnPort(NoDir) != 0 {
		t.Fatal("OthersOnPort is wrong")
	}
}
