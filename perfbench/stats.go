package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, or 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// iqm is the interquartile mean of xs: the mean of its middle half once
// sorted, so that a few blocks hit by a host stall do not move it. xs is
// sorted in place.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := len(xs) / 4
	var sum float64
	for _, x := range xs[k : len(xs)-k] {
		sum += x
	}
	return sum / float64(len(xs)-2*k)
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// tailPercentile is the highest percentile (in whole percent, at most 99.9)
// that still leaves at least ten samples beyond it among n samples: with
// 1000 sweeps that is p99, with 200 it is p95. Fewer than 20 samples fall
// back to the median.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	if p > 99.9 {
		p = 99.9
	}
	if p >= 99 {
		return float64(int(p*10)) / 10
	}
	return float64(int(p))
}

// us and ms convert a duration to fractional microseconds / milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is runtime.MemStats.TotalAlloc: cumulative bytes allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssMB reads the process's resident set (VmRSS) in MiB, or 0 where /proc
// is unavailable.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
