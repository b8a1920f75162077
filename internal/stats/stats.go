// Package stats provides the small set of statistical helpers used across
// the progress-estimation library: norms of error vectors (the paper's L1
// and L2 progress-error metrics), quantiles, correlation, and online
// accumulation of mean/variance.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// LpError computes the paper's progress-error metric over a vector of
// per-observation deviations d_t = estimate_t - truth_t:
//
//	( (1/n) * sum |d_t|^p )^(1/p)
//
// so p=1 is the mean absolute error and p=2 the root mean squared error.
func LpError(deviations []float64, p float64) float64 {
	if len(deviations) == 0 {
		return 0
	}
	var sum float64
	for _, d := range deviations {
		sum += math.Pow(math.Abs(d), p)
	}
	return math.Pow(sum/float64(len(deviations)), 1/p)
}

// L1Error is LpError with p = 1 (average absolute deviation).
func L1Error(deviations []float64) float64 {
	if len(deviations) == 0 {
		return 0
	}
	var sum float64
	for _, d := range deviations {
		sum += math.Abs(d)
	}
	return sum / float64(len(deviations))
}

// L2Error is LpError with p = 2 (root mean squared deviation).
func L2Error(deviations []float64) float64 {
	if len(deviations) == 0 {
		return 0
	}
	var sum float64
	for _, d := range deviations {
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(deviations)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient of xs and ys, or 0
// when either input is (near-)constant.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx < 1e-300 || syy < 1e-300 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Online accumulates count, mean and variance incrementally using
// Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations added.
func (o *Online) N() int { return o.n }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// CoefVariation returns the coefficient of variation (stddev/mean), or 0
// when the mean is (near-)zero. Progress-estimator analysis uses it as a
// scale-free measure of variance in per-tuple work.
func (o *Online) CoefVariation() float64 {
	if math.Abs(o.mean) < 1e-300 {
		return 0
	}
	return math.Sqrt(o.Variance()) / math.Abs(o.mean)
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
