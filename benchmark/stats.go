package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// wallNow is the benchmark's one wall-clock read. Everything under test
// runs on the virtual clock; the benchmark itself measures real time.
func wallNow() time.Time {
	return time.Now() //lint:allow clock the benchmark measures real elapsed time
}

// sleepUntil blocks until the wall clock reaches t. It sleeps in the
// kernel (nanosleep) and not on a runtime timer: an idle Go runtime
// fires timers up to a millisecond late, which would be added to every
// latency the open loops time from a due instant.
func sleepUntil(t time.Time) {
	for {
		d := t.Sub(wallNow())
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// minTailSamples is how many samples must lie beyond a percentile for
// it to be reported (the choosing-metrics rule).
const minTailSamples = 10

// percentileLadder lists the percentiles the benchmark may report.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// percentile returns the nearest-rank p-th percentile of sorted, and how
// many samples lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := percentileRank(n, p)
	return sorted[rank-1], n - rank
}

// percentileRank is the 1-based nearest rank of the p-th percentile
// among n samples.
func percentileRank(n int, p float64) int {
	// The small slack keeps 99.9 % of 10000 at rank 9990, not 9991.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// highestSupported returns the highest ladder percentile that still has
// minTailSamples samples beyond it among n samples, or 0 when even the
// median has fewer.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n > 0 && n-percentileRank(n, p) >= minTailSamples {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), NaN for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method Python's statistics.quantiles(values, n=4) uses, so spreads
// computed here match the acceptance check. Fewer than two samples have
// no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median,
// the run-to-run spread the bounds are judged against.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
