// Sensor patrol: a ring of 20 environmental sensors connected by radio
// links that keep dropping (interference takes down a random link every
// round, and nodes sometimes sleep to save power — the semi-synchronous ET
// model). Two patrol agents must visit every sensor to collect readings,
// over and over, forever.
//
// The sensors are indistinguishable and the patrols know nothing about the
// ring size, so no terminating algorithm exists (Theorems 1/19); but
// unconscious exploration is possible: ETUnconscious (Theorem 18) keeps
// patrolling and provably covers the ring again and again. The program
// measures the latency of each full sweep.
package main

import (
	"fmt"
	"os"

	"dynring"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensor_patrol:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		sensors = 20
		sweeps  = 5
	)
	fmt.Printf("patrolling %d sensors under radio interference (ET model):\n\n", sensors)
	total := 0
	for sweep := 1; sweep <= sweeps; sweep++ {
		res, err := dynring.Scenario{
			Size:      sensors,
			Landmark:  dynring.NoLandmark,
			Algorithm: "ETUnconscious",
			Starts:    []int{0, sensors / 2},
			NewAdversary: dynring.Fixed(dynring.RandomActivation(
				0.7,              // nodes awake with probability 0.7
				int64(sweep)*997, // independent interference per sweep
				dynring.RandomEdges(0.5, int64(sweep)*31))),
			StopWhenExplored: true,
			MaxRounds:        4000 * sensors,
		}.Run()
		if err != nil {
			return err
		}
		if !res.Explored {
			return fmt.Errorf("sweep %d never completed", sweep)
		}
		rounds := res.ExploredRound + 1
		total += rounds
		fmt.Printf("  sweep %d: full coverage after %4d rounds (%d hops)\n",
			sweep, rounds, res.TotalMoves)
	}
	fmt.Printf("\naverage sweep latency: %.1f rounds (%.1f× ring size)\n",
		float64(total)/sweeps, float64(total)/sweeps/sensors)
	fmt.Println("the patrols never stop — with anonymous sensors and unknown ring size,")
	fmt.Println("termination is provably impossible (Theorem 1), but coverage is guaranteed.")
	return nil
}
