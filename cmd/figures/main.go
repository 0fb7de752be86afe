// Command figures regenerates the paper's figure experiments: the tight
// 3n−6 schedule of Figure 2 (as an ASCII space–time diagram), the ID
// computations of Figures 9 and 10, the direction schedule of Figure 11,
// the symmetric bounce of Figure 12, the quadratic frontier run of
// Figures 15/16, and the catch tree of Figure 22.
//
// Usage:
//
//	figures -fig 2 -n 12
//	figures -fig 22
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dynring"
	"dynring/internal/catchtree"
	"dynring/internal/expt"
	"dynring/internal/ids"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.Int("fig", 2, "figure number: 2, 9, 10, 11, 12, 15, 22")
	n := fs.Int("n", 12, "ring size where applicable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *fig {
	case 2:
		return figure2(*n)
	case 9:
		return figureIDs(9, [][3]int{{2, 4, 0}, {3, 7, 0}})
	case 10:
		return figureIDs(10, [][3]int{{2, 5, 4}, {6, 8, 0}})
	case 11:
		return figure11()
	case 12:
		return figure12()
	case 15:
		return figure15(*n)
	case 22:
		return figure22()
	default:
		return fmt.Errorf("no experiment for figure %d", *fig)
	}
}

func figure2(n int) error {
	fmt.Printf("Figure 2 — schedule forcing KnownNNoChirality to 3n-6 = %d rounds (n = %d)\n\n", 3*n-6, n)
	out, err := expt.Figure2Diagram(n)
	if err != nil {
		return err
	}
	fmt.Println(out)
	fmt.Println("legend: digits = agents, '>' / '<' = waiting on cw/ccw port, 'x' = missing edge, '#' = terminated")
	return nil
}

func figureIDs(figure int, runs [][3]int) error {
	fmt.Printf("Figure %d — ID computation by bit interleaving\n\n", figure)
	for i, r := range runs {
		k1, k2, k3 := ids.FromRounds(r[0], r[1], r[2])
		id := ids.Interleave(k1, k2, k3)
		fmt.Printf("agent %c: r1=%d r2=%d r3=%d  =>  k=(%d,%d,%d)  =>  ID = %d\n",
			'a'+rune(i), r[0], r[1], r[2], k1, k2, k3, id)
	}
	return nil
}

func figure11() error {
	sc := ids.NewSchedule(1)
	fmt.Printf("Figure 11 — direction schedule for ID = 1, S(ID) = %s\n\n", sc.S())
	for _, phase := range []int{2, 3, 4} {
		lo, hi := 1<<phase, 1<<(phase+1)
		var b strings.Builder
		for r := lo; r < hi; r++ {
			if sc.Right(r) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		fmt.Printf("phase %d (rounds %3d..%3d): %s\n", phase, lo, hi-1, b.String())
	}
	fmt.Println("\n0 = left, 1 = right; each phase duplicates every bit of S(ID)")
	return nil
}

func figure12() error {
	const n = 7
	blocked := (n - 1) / 2
	rec := dynring.NewTrace(n)
	res, err := dynring.Scenario{
		Size:         n,
		Landmark:     0,
		Algorithm:    "StartFromLandmarkNoChirality",
		Starts:       []int{0, 0},
		Orients:      []dynring.GlobalDir{dynring.CCW, dynring.CW},
		NewAdversary: dynring.Fixed(dynring.KeepEdgeRemoved(blocked)),
		Observer:     rec,
		MaxRounds:    40 * n,
	}.Run()
	if err != nil {
		return err
	}
	fmt.Printf("Figure 12 — symmetric bounce on R%d (edge %d removed forever)\n\n", n, blocked)
	if err := rec.Render(os.Stdout, dynring.TraceOptions{Landmark: 0, MaxRows: 40}); err != nil {
		return err
	}
	fmt.Printf("\nboth agents terminated at the landmark in rounds %v; explored = %v\n",
		res.TerminatedAt, res.Explored)
	return nil
}

func figure15(n int) error {
	rec := dynring.NewTrace(n)
	res, err := dynring.Scenario{
		Size:         n,
		Landmark:     dynring.NoLandmark,
		Algorithm:    "PTBoundWithChirality",
		Starts:       []int{0, 1},
		NewAdversary: dynring.Fixed(dynring.FrontierGuarding()),
		Observer:     rec,
		MaxRounds:    400 * n * n,
	}.Run()
	if err != nil {
		return err
	}
	fmt.Printf("Figure 15/16 — frontier-guarded PT run on R%d: the bounce span grows each trip\n\n", n)
	if err := rec.Render(os.Stdout, dynring.TraceOptions{Landmark: dynring.NoLandmark, MaxRows: 60}); err != nil {
		return err
	}
	fmt.Printf("\ntotal moves: %d  (quadratic in n: moves/n^2 = %.2f)\n",
		res.TotalMoves, float64(res.TotalMoves)/float64(n*n))
	return nil
}

func figure22() error {
	res, err := catchtree.Verify(32)
	if err != nil {
		return err
	}
	fmt.Println("Figure 22 — catch trees rooted at Lab and Lac (Theorem 20)")
	fmt.Println()
	for _, b := range res.Branches {
		var names []string
		for _, e := range b.Path {
			names = append(names, e.String())
		}
		cut := "forbidden pair"
		if b.Cut == catchtree.CutLoop {
			cut = "bounded loop"
		}
		fmt.Printf("  %-40s  -> %s\n", strings.Join(names, " : "), cut)
	}
	fmt.Printf("\n%d branches, %d forbidden cuts, %d loop cuts, max depth %d — no infinite catching schedule exists\n",
		len(res.Branches), res.Forbidden, res.Loops, res.MaxDepth)
	return nil
}
