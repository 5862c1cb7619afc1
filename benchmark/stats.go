package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the sample at
// or below it. An empty sample yields 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// median returns the middle value of v (the mean of the two middle
// values for an even count), leaving v untouched.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// selfTimes returns, per request, a span's duration minus the time its
// child spans cover: the layer's own share of the request.
func selfTimes(parent []float64, children ...[]float64) []float64 {
	self := append([]float64(nil), parent...)
	for _, c := range children {
		for i := range self {
			if i < len(c) {
				self[i] -= c[i]
			}
		}
	}
	return self
}
