// Package xmath provides small numerical helpers shared across the
// repository: clamping, interpolation, streaming statistics, percentiles
// and deterministic configuration-hashed noise.
//
// Everything in this package is pure and allocation-light; the heavier
// numerical machinery (linear solvers, regression trees) lives in
// internal/ml.
package xmath

import (
	"cmp"
	"math"
	"sort"
)

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the closed interval [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a and b; t=0 yields a, t=1 yields b.
// t is not clamped.
func Lerp(a, b, t float64) float64 {
	return a + (b-a)*t
}

// InvLerp returns the parameter t such that Lerp(a, b, t) == v.
// It returns 0 when a == b.
func InvLerp(a, b, v float64) float64 {
	if a == b {
		return 0
	}
	return (v - a) / (b - a)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divisor n), or 0 for
// fewer than one element. It uses the two-pass algorithm for stability.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. xs need not be sorted.
// It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	p = Clamp(p, 0, 100)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	return Lerp(s[lo], s[hi], rank-float64(lo))
}

// NearestRank returns the nearest-rank q-quantile (q in [0, 1]) of an
// ascending slice: the smallest value with at least q of the sample at
// or below it. q <= 0 yields the minimum, q >= 1 the maximum, and an
// empty slice the zero value. Unlike Percentile it never interpolates,
// so the answer is always one of the samples.
func NearestRank[T cmp.Ordered](asc []T, q float64) T {
	if len(asc) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// CeilDiv returns ceil(a/b) for positive integers.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}
