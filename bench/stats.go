package main

import (
	"math"
	"sort"
	"time"
)

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples: the smallest rank with at least p% of the samples at or
// below it. The epsilon keeps a product such as 99.9/100*10000, which
// floating point puts a hair above 9990, from rounding a rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// samplesBeyond is the number of samples strictly above the nearest-rank
// p-th percentile's rank among n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest candidate percentile that has at
// least ten samples beyond it among n samples (0 when none has): the
// choosing-metrics rule for which tail a sample supports.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 50th percentile of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sortedCopy(xs), 50)
}

// sample is one timed operation: when it ended, relative to the start of
// its measured window, and how long it took.
type sample struct {
	end time.Duration
	dur time.Duration
}

func millis(ds []sample) []float64 {
	out := make([]float64, len(ds))
	for i, s := range ds {
		out[i] = float64(s.dur) / float64(time.Millisecond)
	}
	return out
}

// sliceStats cuts a window into equal slices by each sample's end time
// and reports, per slice, the completion rate and the latency p50 and
// tail. Reporting the median over slices keeps one disturbed second (a
// neighbour's burst on the shared box, a GC cycle landing badly) from
// moving the run's number, which a whole-window p99 does not.
type sliceStats struct {
	perSec, p50, tail []float64
	minN              int
}

func slicedStats(samples []sample, window time.Duration, slices int, tailP float64) sliceStats {
	width := window / time.Duration(slices)
	buckets := make([][]float64, slices)
	for _, s := range samples {
		i := int(s.end / width)
		if i < 0 || i >= slices {
			continue // finished after the window closed
		}
		buckets[i] = append(buckets[i], float64(s.dur)/float64(time.Millisecond))
	}
	st := sliceStats{minN: math.MaxInt}
	for _, b := range buckets {
		if len(b) < st.minN {
			st.minN = len(b)
		}
		st.perSec = append(st.perSec, float64(len(b))/width.Seconds())
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		st.p50 = append(st.p50, percentile(b, 50))
		st.tail = append(st.tail, percentile(b, tailP))
	}
	return st
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is
// what the acceptance check computes.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
