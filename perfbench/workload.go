package main

import (
	"fmt"
	"time"

	"dynring"
)

// workload is one fixed benchmark configuration: the cluster it boots, the
// composition of every sweep it submits, and how much work one run does.
// Everything a run submits is generated from the workload and the --seed
// argument alone (see makeInputs).
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loads and Bypasses name the layers the timed phase exercises and the
	// ones it skips, so a later change can tell which workload should move.
	Loads    string `json:"loads"`
	Bypasses string `json:"bypasses"`

	Nodes    int   `json:"nodes"`
	Replicas int   `json:"replicas"`
	Workers  []int `json:"workers"`
	Clients  int   `json:"clients"`
	// CacheSize is every node's memory-tier capacity in entries. No
	// workload has a durable tier: its writes go to the host's shared disk,
	// whose latency swung throughput by half between runs.
	CacheSize int `json:"cache_size"`
	// Template is one sweep's rows; every row gets its own generated seed.
	Template []dynring.ScenarioSpec `json:"-"`
	Grid     string                 `json:"grid"`
	// HotGrids > 0 primes that many generated grids during set-up and
	// re-submits them round-robin in the timed phase; 0 gives every sweep
	// fresh fingerprints.
	HotGrids int `json:"hot_grids,omitempty"`
	// Warmup is the number of set-up sweeps of the workload's own shape.
	Warmup int `json:"warmup_sweeps"`
	// SweepsPerSecond fixes the timed sweep count at --seconds times this
	// value. The count depends on nothing measured, so every run with the
	// same arguments does identical work; the constant was chosen so the
	// timed phase lasts about --seconds on a 2-vCPU x86-64 VM.
	SweepsPerSecond int `json:"sweeps_per_second"`
	// ReplayEvery selects one timed sweep in ReplayEvery (seeded) whose
	// rows are replayed locally and compared; 1 replays every row.
	ReplayEvery int `json:"replay_every"`
	// ProbeInterval and AntiEntropyInterval are the cluster's background
	// loops (zero on standalone nodes).
	ProbeInterval       time.Duration `json:"probe_interval_ns,omitempty"`
	AntiEntropyInterval time.Duration `json:"antientropy_interval_ns,omitempty"`
}

// setups is how many times a run sets the system up; setup_s is their
// median, and only the last set-up is timed afterwards.
const setups = 9

// clients is the closed-loop client count, and procs the process's
// GOMAXPROCS: the nproc of the 2-vCPU reference host, fixed so the load
// does not depend on the machine.
const (
	clients = 2
	procs   = 2
)

// cells expands algorithm × size × adversary × copies into template rows.
func cells(landmark int, algos []string, sizes []int, advs []dynring.AdversarySpec, copies int) []dynring.ScenarioSpec {
	var out []dynring.ScenarioSpec
	for _, a := range algos {
		for _, n := range sizes {
			for i := range advs {
				for range copies {
					adv := advs[i]
					out = append(out, dynring.ScenarioSpec{Algorithm: a, Size: n, Landmark: landmark, Adversary: &adv})
				}
			}
		}
	}
	return out
}

var (
	random   = dynring.AdversarySpec{Kind: "random", P: 0.5}
	greedy   = dynring.AdversarySpec{Kind: "greedy"}
	capped   = dynring.AdversarySpec{Kind: "capped", R: 2}
	terminal = []string{"KnownNNoChirality", "LandmarkWithChirality", "PTBoundWithChirality"}
)

// workloads lists the benchmark's workloads by name.
var workloads = map[string]workload{
	"solo-cold": {
		Name: "solo-cold",
		Why:  "engine-bound: every row is a fresh fingerprint, so changes to the engine or the scheduler's queueing show here",
		Loads: "client, admission, sched, cache (misses and puts only), engine (stepped horizon runs and leapt capped runs), " +
			"stream",
		Bypasses:  "route, hop, replication, disk tier, cache hits",
		Nodes:     1,
		Workers:   []int{2},
		Clients:   clients,
		CacheSize: 4096,
		Template: append(
			cells(-1, []string{"UnconsciousExploration", "ETUnconscious"}, []int{8, 16}, []dynring.AdversarySpec{random}, 1),
			cells(-1, []string{"PTBoundWithChirality", "ETUnconscious"}, []int{8, 16}, []dynring.AdversarySpec{capped}, 1)...),
		Grid: "8 rows: {UnconsciousExploration, ETUnconscious} x n{8,16} under random(p=0.5) (stepped to the horizon) + " +
			"{PTBoundWithChirality, ETUnconscious} x n{8,16} under capped(r=2) (leapt), anonymous ring",
		Warmup:          64,
		SweepsPerSecond: 180,
		ReplayEvery:     32,
	},
	"solo-hot": {
		Name: "solo-hot",
		Why:  "service-bound: primed grids re-submitted, so every timed row is a memory-tier hit and the engine does no work",
		Loads: "client, admission (decode, expand, fingerprint), sched, cache (reads and copies), stream (NDJSON encode), " +
			"client decode",
		Bypasses:  "engine, cache writes, route, hop, replication, disk tier",
		Nodes:     1,
		Workers:   []int{2},
		Clients:   clients,
		CacheSize: 4096,
		Template:  cells(0, terminal, []int{8, 12, 16, 24}, []dynring.AdversarySpec{random, greedy}, 2),
		Grid: "48 rows: {KnownNNoChirality, LandmarkWithChirality, PTBoundWithChirality} x n{8,12,16,24} x " +
			"{random(p=0.5), greedy} x 2 seeds, landmark 0; 16 such grids primed, re-submitted round-robin",
		HotGrids:        16,
		Warmup:          200,
		SweepsPerSecond: 1000,
		ReplayEvery:     128,
	},
	"trio-replicated": {
		Name: "trio-replicated",
		Why:  "wire-bound: cheap fresh rows on 3 stable-named nodes, so the /v1/run and /v1/replicate envelopes and fan-out dominate",
		Loads: "client, admission, sched, cache (misses, puts, adoption), route (local or owner proxy), hop (POST /v1/run), " +
			"replication (2 pushes per execution into replica memory tiers), engine (cheap)",
		Bypasses:            "steal, hedge, breaker, fallback (healthy ring, one coordinator), cache hits, disk tier",
		Nodes:               3,
		Replicas:            3,
		Workers:             []int{2, 1, 1},
		Clients:             clients,
		CacheSize:           4096,
		Template:            cells(0, terminal, []int{8, 16}, []dynring.AdversarySpec{random, greedy}, 2),
		Grid:                "24 rows: {KnownNNoChirality, LandmarkWithChirality, PTBoundWithChirality} x n{8,16} x {random(p=0.5), greedy} x 2 seeds, landmark 0",
		Warmup:              96,
		SweepsPerSecond:     200,
		ReplayEvery:         4,
		ProbeInterval:       time.Second,
		AntiEntropyInterval: 30 * time.Second,
	},
}

// sweepIn is one generated sweep: its wire spec, the fingerprint the
// service must report for each row, and whether its rows are replayed.
type sweepIn struct {
	spec   dynring.SweepSpec
	fps    []string
	sample bool
}

// inputs is everything one run submits.
type inputs struct {
	warmup []sweepIn
	prime  []sweepIn // solo-hot's hot grids, executed once in set-up
	timed  []sweepIn
	// distinct is the number of distinct fingerprints across all of them:
	// the cluster-wide execution count exactly-once requires.
	distinct int
}

// mix is the splitmix64 finalizer, a bijection on uint64.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generator hands out row seeds that differ across runs with different
// --seed values and never repeat within a run.
type generator struct {
	seed uint64
	next uint64
}

func (g *generator) sweep(w workload) (sweepIn, error) {
	rows := make([]dynring.ScenarioSpec, len(w.Template))
	for i, t := range w.Template {
		g.next++
		t.Seed = int64(mix(g.seed<<32|g.next) >> 2)
		t.Name = fmt.Sprintf("%s/n=%d/%s/%d", t.Algorithm, t.Size, t.Adversary.Label(), t.Seed)
		rows[i] = t
	}
	in := sweepIn{spec: dynring.SweepSpec{Scenarios: rows}}
	scs, err := in.spec.ScenarioList()
	if err != nil {
		return sweepIn{}, err
	}
	in.fps = make([]string, len(scs))
	for i, sc := range scs {
		if in.fps[i], err = sc.Fingerprint(); err != nil {
			return sweepIn{}, err
		}
	}
	return in, nil
}

// makeInputs generates a run's sweeps from the workload and seed. nTimed
// is the timed sweep count. The same arguments always give the same
// sweeps.
func makeInputs(w workload, seed int64, nTimed int) (inputs, error) {
	g := &generator{seed: uint64(seed)}
	var in inputs
	fresh := func(n int) ([]sweepIn, error) {
		out := make([]sweepIn, n)
		for i := range out {
			s, err := g.sweep(w)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	var err error
	if in.prime, err = fresh(w.HotGrids); err != nil {
		return inputs{}, err
	}
	if w.HotGrids > 0 {
		// Warm-up and timed sweeps re-submit the primed grids round-robin.
		for i := range w.Warmup {
			in.warmup = append(in.warmup, in.prime[i%w.HotGrids])
		}
		for i := range nTimed {
			in.timed = append(in.timed, in.prime[i%w.HotGrids])
		}
	} else {
		if in.warmup, err = fresh(w.Warmup); err != nil {
			return inputs{}, err
		}
		if in.timed, err = fresh(nTimed); err != nil {
			return inputs{}, err
		}
	}
	for i := range in.timed {
		in.timed[i].sample = w.ReplayEvery <= 1 || mix(uint64(seed)^0x5eed<<40|uint64(i))%uint64(w.ReplayEvery) == 0
	}
	// The last sweep is always in the sample: it is the one the stream
	// check re-reads.
	if n := len(in.timed); n > 0 {
		in.timed[n-1].sample = true
	}
	seen := map[string]bool{}
	for _, list := range [][]sweepIn{in.prime, in.warmup, in.timed} {
		for _, s := range list {
			for _, fp := range s.fps {
				seen[fp] = true
			}
		}
	}
	in.distinct = len(seen)
	return in, nil
}
