// Command ringsim runs exploration scenarios and reports the outcome:
// a single run (optionally with a space–time diagram of the whole round
// history), or a whole scenario grid executed concurrently via the Sweep
// API.
//
// Usage:
//
//	ringsim -algo LandmarkWithChirality -n 12 -landmark 0 -adversary "random(p=0.5)" -trace
//	ringsim -algo LandmarkFreeExactN -n 12 -landmark -1 -adversary "tinterval(T=2)"
//	ringsim -algo PTBoundWithChirality -n 12 -landmark -1 -adversary "act(0.7)+random(p=0.5)"
//	ringsim -sweep -algos KnownNNoChirality,UnconsciousExploration -sizes 8,16,32 -seeds 1,2,3 -adversaries "random(p=0.5),greedy"
//	ringsim -sweep -adversaries "tinterval(T=2),capped(r=2),recurrent(w=3)" -sizes 8,16
//	ringsim -sweep -sizes 8,16 -json
//	ringsim -sweep -sizes 8,16 -stats
//	ringsim -sweep -sizes 8,16 -dry-run
//	ringsim -sweep -sizes 8,16 -server http://127.0.0.1:8080
//	ringsim -list
//
// Adversaries are named by their labels in the AdversarySpec grammar, e.g.
// greedy, capped(r=2) or act(0.7)+random(p=0.5); see
// dynring.ParseAdversary. A kind that takes a parameter must carry it:
// -adversary random is refused, -adversary "random(p=0.5)" runs.
//
// Sweeps are cancellable: an interrupt (Ctrl-C) stops the grid and prints
// the aggregate of the scenarios finished so far. -dry-run prints the
// expanded, validated grid (name + fingerprint — the ringsimd cache keys)
// without executing anything; -server submits the grid to a ringsimd
// service instead of running it in-process. Local sweeps memoize results
// in-process by default (-memo): scenarios with identical resolved
// fingerprints — including seed-axis copies of deterministic adversaries —
// execute once and replay the cached Result, marked "(memo)" in the row
// output. Replay is exact; -memo=false forces every scenario to execute.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"dynring"
	"dynring/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("ringsim", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "LandmarkWithChirality", "algorithm name (see -list)")
		n        = fs.Int("n", 12, "ring size")
		landmark = fs.Int("landmark", 0, "landmark node, or -1 for an anonymous ring")
		advName  = fs.String("adversary", "random(p=0.5)", "adversary label, e.g. greedy, random(p=0.5), tinterval(T=2) or act(0.7)+capped(r=2); see dynring.ParseAdversary")
		seed     = fs.Int64("seed", 1, "adversary seed")
		rounds   = fs.Int("rounds", 0, "round budget (0 = default for the algorithm)")
		starts   = fs.String("starts", "", "comma-separated start nodes (default: even spacing)")
		orients  = fs.String("orients", "", "comma-separated orientations cw|ccw (default: all cw)")
		showTr   = fs.Bool("trace", false, "print the space-time diagram")
		stopExpl = fs.Bool("stop-explored", false, "stop as soon as the ring is explored")
		list     = fs.Bool("list", false, "list registered algorithms and exit")
		jsonOut  = fs.Bool("json", false, "emit JSON instead of text")

		sweepMode = fs.Bool("sweep", false, "run a scenario grid instead of a single scenario")
		memo      = fs.Bool("memo", true, "sweep: memoize results in-process so scenarios with identical resolved fingerprints (e.g. deterministic adversaries swept over seeds) execute once; replay is exact (-memo=false forces every scenario to execute)")
		algos     = fs.String("algos", "", "sweep: comma-separated algorithm axis (default: -algo)")
		sizes     = fs.String("sizes", "", "sweep: comma-separated ring-size axis (default: -n)")
		seeds     = fs.String("seeds", "", "sweep: comma-separated seed axis (default: -seed)")
		advAxis   = fs.String("adversaries", "", "sweep: comma-separated adversary axis (default: -adversary)")
		workers   = fs.Int("workers", 0, "sweep: worker pool size (0 = NumCPU)")
		dryRun    = fs.Bool("dry-run", false, "print the expanded grid (name + fingerprint) without executing")
		server    = fs.String("server", "", "sweep: submit the grid to a ringsimd service at this URL instead of running locally")
		stats     = fs.Bool("stats", false, "sweep: report engine execution stats per row (rounds stepped/leapt, leap ratio); local sweeps only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stats && *server != "" {
		// Remote rows deliberately carry no execution stats (the NDJSON
		// stream is deterministic); scrape the service's /metrics instead.
		return fmt.Errorf("-stats reports local engine accounting and cannot be combined with -server")
	}
	if *stats && !*sweepMode {
		return fmt.Errorf("-stats reports per-row sweep accounting: combine it with -sweep")
	}
	if *showTr && (*jsonOut || *sweepMode) {
		return fmt.Errorf("-trace renders a text diagram and cannot be combined with -json or -sweep")
	}
	if *list {
		for _, a := range dynring.Algorithms() {
			fmt.Fprintf(out, "%-30s %-28s agents=%d landmark=%-5v chirality=%-5v knowledge=%-13s %s\n",
				a.Name, a.Paper, a.Agents, a.NeedsLandmark, a.NeedsChirality, a.Knowledge, a.Description)
		}
		return nil
	}

	base := dynring.Scenario{
		Size:             *n,
		Landmark:         *landmark,
		Algorithm:        *algo,
		Seed:             *seed,
		MaxRounds:        *rounds,
		StopWhenExplored: *stopExpl,
	}
	var err error
	if base.Starts, err = parseList(*starts, strconv.Atoi); err != nil {
		return fmt.Errorf("bad -starts: %w", err)
	}
	if base.Orients, err = parseList(*orients, dynring.ParseOrient); err != nil {
		return fmt.Errorf("bad -orients: %w", err)
	}

	if *sweepMode {
		return runSweep(ctx, out, base, sweepFlags{
			algos: *algos, sizes: *sizes, seeds: *seeds,
			adversaries: *advAxis, defaultAdv: *advName,
			workers: *workers, jsonOut: *jsonOut, dryRun: *dryRun, server: *server,
			memo: *memo, stats: *stats,
		})
	}
	if *server != "" {
		return fmt.Errorf("-server submits grids: combine it with -sweep")
	}

	spec, err := adversarySpec(*advName)
	if err != nil {
		return err
	}
	factory, err := spec.Factory()
	if err != nil {
		return err
	}
	base.AdversaryLabel = spec.Label()
	base.NewAdversary = factory
	if *dryRun {
		// Fingerprint the scenario exactly as this mode would execute it —
		// not via sweep expansion, which derives a different seed — but take
		// the display name from a 1-element expansion so the grid-name
		// format has a single source of truth.
		fp, err := base.Fingerprint()
		if err != nil {
			return err
		}
		scs, err := dynring.Sweep{Base: base}.Scenarios()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "[   0] %-60s fp=%s\n1 scenarios\n", scs[0].Name, fp)
		return nil
	}
	var rec *dynring.TraceRecorder
	if *showTr {
		rec = dynring.NewTrace(*n)
		base.Observer = rec
	}

	res, err := base.RunContext(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if rec != nil {
		if err := rec.Render(out, dynring.TraceOptions{Landmark: *landmark, MaxRows: 80}); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "outcome:   %v after %d rounds\n", res.Outcome, res.Rounds)
	fmt.Fprintf(out, "explored:  %v (completed in round %d)\n", res.Explored, res.ExploredRound)
	fmt.Fprintf(out, "moves:     %v (total %d)\n", res.Moves, res.TotalMoves)
	fmt.Fprintf(out, "terminated:%d of %d agents, rounds %v\n", res.Terminated, len(res.TerminatedAt), res.TerminatedAt)
	return nil
}

// memoCapacity bounds the per-invocation sweep memo. A CLI process runs one
// grid, so the bound only matters for grids with more unique keys than
// this; LRU eviction degrades gracefully to re-execution.
const memoCapacity = 1 << 16

// sweepFlags carries the sweep-mode command line. defaultAdv is the single
// -adversary value, used when no -adversaries axis is given.
type sweepFlags struct {
	algos, sizes, seeds, adversaries string
	defaultAdv                       string
	workers                          int
	jsonOut                          bool
	dryRun                           bool
	server                           string
	memo                             bool
	stats                            bool
}

// sweepJSON is the -sweep -json output document.
type sweepJSON struct {
	Scenarios []scenarioJSON   `json:"scenarios"`
	Aggregate []dynring.AggRow `json:"aggregate"`
	Cancelled bool             `json:"cancelled,omitempty"`
}

// scenarioJSON flattens one SweepResult for encoding (error as string).
// Stats appears only under -stats: it is execution provenance, not part of
// the deterministic result, and zero for memo-replayed rows.
type scenarioJSON struct {
	Name   string            `json:"name"`
	Result dynring.Result    `json:"result"`
	Error  string            `json:"error,omitempty"`
	WallMS float64           `json:"wall_ms"`
	Cached bool              `json:"cached,omitempty"`
	Stats  *dynring.RunStats `json:"stats,omitempty"`
}

func runSweep(ctx context.Context, out io.Writer, base dynring.Scenario, f sweepFlags) error {
	sizes, err := parseList(f.sizes, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("bad -sizes: %w", err)
	}
	seeds, err := parseList(f.seeds, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	if err != nil {
		return fmt.Errorf("bad -seeds: %w", err)
	}
	advNames := splitList(f.adversaries)
	if advNames == nil {
		advNames = []string{f.defaultAdv}
	}
	var advSpecs []dynring.AdversarySpec
	for _, name := range advNames {
		spec, serr := adversarySpec(name)
		if serr != nil {
			return serr
		}
		advSpecs = append(advSpecs, spec)
	}

	sw := dynring.Sweep{Base: base, Workers: f.workers, Sizes: sizes, Seeds: seeds}
	if f.memo && f.server == "" {
		// Local sweeps memoize by default; remote grids already hit the
		// ringsimd service cache, and -dry-run never executes.
		sw.Memo = dynring.NewMemo(memoCapacity)
	}
	if f.algos != "" {
		sw.Algorithms = splitList(f.algos)
	}
	for _, spec := range advSpecs {
		factory, ferr := spec.Factory()
		if ferr != nil {
			return ferr
		}
		sw.Adversaries = append(sw.Adversaries, dynring.SweepAdversary{Name: spec.Label(), New: factory})
	}
	if f.dryRun {
		return printGrid(out, sw)
	}

	start := time.Now()
	var total int
	var results []dynring.SweepResult
	printRow := func(r dynring.SweepResult) {
		status := r.Result.Outcome.String()
		if r.Err != nil {
			status = "error: " + r.Err.Error()
		}
		mark := ""
		if r.Cached {
			mark = " (memo)"
		}
		if f.stats && !r.Cached && r.Err == nil {
			mark += fmt.Sprintf(" steps=%d leapt=%d (leap %.0f%%)",
				r.Stats.RoundsStepped, r.Stats.RoundsLeapt, 100*r.Stats.LeapRatio())
		}
		fmt.Fprintf(out, "[%4d] %-60s %-16s rounds=%-7d moves=%-7d %.1fms%s\n",
			r.Index, r.Scenario.Name, status, r.Result.Rounds, r.Result.TotalMoves,
			float64(r.Wall.Microseconds())/1000, mark)
	}

	if f.server != "" {
		// The base carries no factory here — adversaries travel as the
		// spec axis — so the wire conversion cannot fail on dynamics.
		baseSpec, serr := base.Spec()
		if serr != nil {
			return serr
		}
		spec := dynring.SweepSpec{
			Base:        baseSpec,
			Algorithms:  sw.Algorithms,
			Sizes:       sizes,
			Seeds:       seeds,
			Adversaries: advSpecs,
		}
		onStart := func(st dynring.JobStatus) {
			// RunSweepFunc has already checked the server's expansion
			// against the local one, so Total is the grid size.
			total = st.Total
			if !f.jsonOut {
				fmt.Fprintf(out, "submitted %s (%d scenarios) to %s\n", st.ID, st.Total, f.server)
			}
		}
		onRow := func(r dynring.SweepResult) {
			if !f.jsonOut {
				printRow(r)
			}
		}
		// RunSweepFunc cancels the server-side job on any failure; an
		// interrupt falls through to report the partial aggregate.
		results, err = dynring.NewClient(f.server).RunSweepFunc(ctx, spec, onStart, onRow)
		if err != nil && ctx.Err() == nil {
			return err
		}
	} else {
		grid, serr := sw.Scenarios()
		if serr != nil {
			return serr
		}
		total = len(grid)
		ch, serr := sw.Stream(ctx)
		if serr != nil {
			return serr
		}
		for r := range ch {
			results = append(results, r)
			if !f.jsonOut {
				printRow(r)
			}
		}
	}
	cancelled := ctx.Err() != nil
	agg := dynring.Aggregate(results)

	if f.jsonOut {
		doc := sweepJSON{Aggregate: agg, Cancelled: cancelled}
		for _, r := range results {
			sj := scenarioJSON{Name: r.Scenario.Name, Result: r.Result,
				WallMS: float64(r.Wall.Microseconds()) / 1000, Cached: r.Cached}
			if r.Err != nil {
				sj.Error = r.Err.Error()
			}
			if f.stats && !r.Cached && r.Err == nil {
				st := r.Stats
				sj.Stats = &st
			}
			doc.Scenarios = append(doc.Scenarios, sj)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	// In server mode the grid ran on the service's shared pool, not on any
	// local worker count, so don't report one.
	pool := fmt.Sprintf("workers=%d", sweep.Workers(sw.Workers, total))
	if f.server != "" {
		pool = "remote " + f.server
	}
	fmt.Fprintf(out, "\n%d of %d scenarios in %.1fms (%s)\n",
		len(results), total, float64(time.Since(start).Microseconds())/1000, pool)
	if cancelled {
		fmt.Fprintln(out, "sweep cancelled; aggregate covers finished scenarios only")
	}
	for _, row := range agg {
		fmt.Fprintln(out, row)
	}
	return nil
}

// printGrid expands the sweep and prints each scenario's grid name and
// fingerprint — the exact cache keys a ringsimd service would use — without
// executing anything.
func printGrid(out io.Writer, sw dynring.Sweep) error {
	scenarios, err := sw.Scenarios()
	if err != nil {
		return err
	}
	for i, sc := range scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "[%4d] %-60s fp=%s\n", i, sc.Name, fp)
	}
	fmt.Fprintf(out, "%d scenarios\n", len(scenarios))
	return nil
}

// adversarySpec parses one CLI adversary label into the serializable spec
// the sweep axes, fingerprints and the remote API share. A bare kind that
// takes a parameter is refused rather than run with its zero value: its
// label is not the name itself (random renders as random(p=0)), so Label
// is the oracle and no list of kinds is kept here.
func adversarySpec(name string) (dynring.AdversarySpec, error) {
	strategy := strings.TrimSpace(name[strings.LastIndex(name, "+")+1:])
	if !strings.ContainsRune(strategy, '(') {
		if label := (dynring.AdversarySpec{Kind: strategy}).Label(); label != strategy {
			form := label[:strings.LastIndexAny(label, "(=")+1] + "…)"
			return dynring.AdversarySpec{}, fmt.Errorf("adversary %q takes a parameter: write it as the label %s", name, form)
		}
	}
	return dynring.ParseAdversary(name)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseList splits a comma-separated flag value and parses each entry.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	parts := splitList(s)
	if parts == nil {
		return nil, nil
	}
	out := make([]T, 0, len(parts))
	for _, part := range parts {
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
