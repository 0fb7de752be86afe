package sim

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"dynring/internal/wire"
)

// Outcome classifies how a run ended.
type Outcome int

const (
	// OutcomeAllTerminated means every agent entered its terminal state.
	OutcomeAllTerminated Outcome = iota + 1
	// OutcomeHorizon means the round budget was exhausted.
	OutcomeHorizon
	// OutcomeExplored means the run stopped early because the ring was
	// fully explored (only with RunOptions.StopWhenExplored).
	OutcomeExplored
	// OutcomeCycle means the full configuration repeated: the run would
	// continue forever without progress. This is a certificate of
	// non-termination for deterministic components.
	OutcomeCycle
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeAllTerminated:
		return "all-terminated"
	case OutcomeHorizon:
		return "horizon"
	case OutcomeExplored:
		return "explored"
	case OutcomeCycle:
		return "cycle"
	default:
		return "invalid"
	}
}

// RunOptions bound a run.
type RunOptions struct {
	// MaxRounds is the round budget; it must be positive.
	MaxRounds int
	// StopWhenExplored ends the run as soon as all nodes are visited,
	// which is useful for unconscious (never-terminating) protocols.
	StopWhenExplored bool
	// DetectCycles enables configuration-cycle certificates. It requires
	// every protocol (and the adversary, if any) to implement
	// Fingerprinter; otherwise it is silently inactive. It forces the
	// round-by-round slow path: the certificate is about individual rounds.
	DetectCycles bool
	// DisableLeap forces the round-by-round slow path even when the run is
	// eligible for quiescence leaping (see leap.go). Leaping is provably
	// result-identical, so this exists for verification (the leap/slow
	// equivalence property tests) and debugging, not for correctness.
	DisableLeap bool
}

// Result summarizes a finished run.
type Result struct {
	// Outcome classifies the stop reason.
	Outcome Outcome
	// Rounds is the number of rounds executed.
	Rounds int
	// Explored reports full node coverage; ExploredRound is the round the
	// last node was first visited (-1 if never).
	Explored      bool
	ExploredRound int
	// TerminatedAt holds, per agent, the round it terminated (-1 if it
	// did not); Terminated is the count of terminated agents.
	TerminatedAt []int
	Terminated   int
	// Moves holds per-agent edge-traversal counts; TotalMoves their sum.
	Moves      []int
	TotalMoves int
	// CycleStart is the earlier round with an identical configuration when
	// Outcome is OutcomeCycle.
	CycleStart int
}

// Clone returns a deep copy of r: its slices are fresh, so mutating the
// copy can never reach r. Result caches store and serve clones — a Result
// aliased between a cache and a caller would let a caller that mutates its
// apparently-owned slices poison every later hit of that key.
func (r Result) Clone() Result {
	r.TerminatedAt = slices.Clone(r.TerminatedAt)
	r.Moves = slices.Clone(r.Moves)
	return r
}

// AppendResult appends r's JSON form to dst: exactly the bytes
// encoding/json emits for a Result (Go field names, Outcome as a number,
// null for a nil slice and [] for an empty one). It is the Result half of
// the hot-path wire codec (see internal/wire).
func AppendResult(dst []byte, r *Result) []byte {
	dst = append(dst, `{"Outcome":`...)
	dst = strconv.AppendInt(dst, int64(r.Outcome), 10)
	dst = append(dst, `,"Rounds":`...)
	dst = strconv.AppendInt(dst, int64(r.Rounds), 10)
	dst = append(dst, `,"Explored":`...)
	dst = strconv.AppendBool(dst, r.Explored)
	dst = append(dst, `,"ExploredRound":`...)
	dst = strconv.AppendInt(dst, int64(r.ExploredRound), 10)
	dst = append(dst, `,"TerminatedAt":`...)
	dst = wire.AppendInts(dst, r.TerminatedAt)
	dst = append(dst, `,"Terminated":`...)
	dst = strconv.AppendInt(dst, int64(r.Terminated), 10)
	dst = append(dst, `,"Moves":`...)
	dst = wire.AppendInts(dst, r.Moves)
	dst = append(dst, `,"TotalMoves":`...)
	dst = strconv.AppendInt(dst, int64(r.TotalMoves), 10)
	dst = append(dst, `,"CycleStart":`...)
	dst = strconv.AppendInt(dst, int64(r.CycleStart), 10)
	return append(dst, '}')
}

// ReadResult reads one Result object from l into r, the fast-path inverse
// of AppendResult. Anything outside the canonical form — a key that is
// not an exact field name, a repeated key, escapes, non-integer numbers —
// fails l, and the caller decodes the whole input with encoding/json.
func ReadResult(l *wire.Lexer, r *Result) {
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "Outcome":
			l.Field(&seen, 0)
			r.Outcome = Outcome(l.Int())
		case "Rounds":
			l.Field(&seen, 1)
			r.Rounds = l.Int()
		case "Explored":
			l.Field(&seen, 2)
			r.Explored = l.Bool()
		case "ExploredRound":
			l.Field(&seen, 3)
			r.ExploredRound = l.Int()
		case "TerminatedAt":
			l.Field(&seen, 4)
			r.TerminatedAt = l.Ints()
		case "Terminated":
			l.Field(&seen, 5)
			r.Terminated = l.Int()
		case "Moves":
			l.Field(&seen, 6)
			r.Moves = l.Ints()
		case "TotalMoves":
			l.Field(&seen, 7)
			r.TotalMoves = l.Int()
		case "CycleStart":
			l.Field(&seen, 8)
			r.CycleStart = l.Int()
		default:
			l.Fail()
		}
	}
}

// RunStats accounts for how a run was executed, as opposed to what it
// computed (Result). The split matters: stats depend on the execution path
// — the leap fast path and the slow path produce identical Results but very
// different stats — so they are deliberately not part of Result, never
// cached, and never compared by the parity or equivalence suites. They are
// the engine's round-count accounting: RoundsStepped+RoundsLeapt equals
// Result.Rounds, making exploration-time bounds (and the leap fast path's
// win) observable per run.
type RunStats struct {
	// RoundsStepped counts rounds executed by World.Step; RoundsLeapt
	// counts rounds skipped by the quiescence-leap fast path.
	RoundsStepped int
	RoundsLeapt   int
	// Leaps counts committed leaps (each covering >= 1 leapt round).
	Leaps int
	// LeapProbesDisqualified counts engine-quiescent rounds whose leap
	// probe was invalidated because the activation set contained a
	// fairness- or ET-forced agent (see leapCheck).
	LeapProbesDisqualified int
	// CycleDetections counts configuration-cycle certificates issued
	// (0 or 1 per run; only with RunOptions.DetectCycles).
	CycleDetections int
}

// Run drives w until all agents terminate, the horizon is reached, the ring
// is explored (if requested), or a configuration cycle is certified.
func Run(w *World, opts RunOptions) (Result, error) {
	return RunContext(context.Background(), w, opts)
}

// ctxCheckMask controls how often RunContext polls ctx: every round whose
// index has these low bits clear (64 rounds). Polling is cheap but not free,
// and a round is microseconds, so cancellation stays prompt either way.
const ctxCheckMask = 63

// RunContext is Run with cooperative cancellation: the loop polls ctx every
// few rounds and returns ctx.Err() (and a zero Result) once it is done.
//
// Runs whose components permit it take the quiescence-leap fast path: once
// a round is proven to be a configuration fixed point, the round counter
// jumps straight to the next round at which anything can change (the
// adversary's schedule, a fairness forcing, or the horizon) instead of
// stepping through the identical rounds one by one. Leaping is
// result-identical by construction (see leap.go); observers, cycle
// detection, custom tie-breakers, non-scheduled adversaries, protocols
// without fingerprints, and DisableLeap all force the exact slow path.
func RunContext(ctx context.Context, w *World, opts RunOptions) (Result, error) {
	res, _, err := RunContextStats(ctx, w, opts)
	return res, err
}

// RunContextStats is RunContext plus the run's execution accounting. The
// Result is identical to RunContext's; the RunStats are meaningful only for
// runs that return a nil error.
func RunContextStats(ctx context.Context, w *World, opts RunOptions) (Result, RunStats, error) {
	var stats RunStats
	if opts.MaxRounds <= 0 {
		return Result{}, stats, fmt.Errorf("%w: non-positive MaxRounds", ErrConfig)
	}
	var seen map[string]int
	if opts.DetectCycles {
		seen = make(map[string]int)
	}
	sched, canLeap := w.leapEligible(opts)
	var probe leapProbe
	outcome := OutcomeHorizon
	cycleStart := -1
loop:
	for w.Round() < opts.MaxRounds {
		if w.Round()&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, stats, err
			}
		}
		if w.AllTerminated() {
			outcome = OutcomeAllTerminated
			break
		}
		if opts.StopWhenExplored && w.Explored() {
			outcome = OutcomeExplored
			break
		}
		if seen != nil {
			if sig, ok := w.Fingerprint(); ok {
				if prev, dup := seen[sig]; dup {
					outcome = OutcomeCycle
					cycleStart = prev
					stats.CycleDetections++
					break loop
				}
				seen[sig] = w.Round()
			}
		}
		if err := w.Step(); err != nil {
			return Result{}, stats, err
		}
		stats.RoundsStepped++
		if canLeap {
			if !w.stepChanged && w.forcedActivation {
				stats.LeapProbesDisqualified++
			}
			if target := w.leapCheck(&probe, sched, opts.MaxRounds); target > w.Round() {
				stats.Leaps++
				stats.RoundsLeapt += target - w.Round()
				w.leapTo(target)
			}
		}
	}
	if w.AllTerminated() {
		outcome = OutcomeAllTerminated
	} else if opts.StopWhenExplored && w.Explored() && outcome == OutcomeHorizon {
		outcome = OutcomeExplored
	}
	res := Result{
		Outcome:       outcome,
		Rounds:        w.Round(),
		Explored:      w.Explored(),
		ExploredRound: w.ExploredRound(),
		TerminatedAt:  make([]int, w.NumAgents()),
		Moves:         make([]int, w.NumAgents()),
		TotalMoves:    w.TotalMoves(),
		CycleStart:    cycleStart,
	}
	for i := 0; i < w.NumAgents(); i++ {
		res.TerminatedAt[i] = w.TerminatedRound(i)
		if res.TerminatedAt[i] >= 0 {
			res.Terminated++
		}
		res.Moves[i] = w.AgentMoves(i)
	}
	return res, stats, nil
}
