package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
)

// median returns the middle of xs (the mean of the two middles for even
// lengths), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentiles is the ladder the tail helper climbs.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// tail reports the highest percentile of xs on the ladder that still has at
// least ten samples beyond it, using nearest-rank percentiles, together
// with that percentile and the sample count. With fewer than 20 samples no
// percentile qualifies and the median is reported at p = 50.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 50, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct = 50
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			pct = p
		}
	}
	if pct == 50 {
		return median(s), pct, n
	}
	return s[nearestRank(pct, n)-1], pct, n
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	// The tolerance keeps float error (99.9/100*10000 = 9990.000000000002)
	// from bumping an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(k, n))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocated is the cumulative number of heap bytes allocated.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
