package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the percentiles a timing may be reported at, in
// falling order.
var tailPercentiles = []float64{99.9, 99, 90}

// highPercentile returns the highest of tailPercentiles that has at
// least ten samples beyond it, with its nearest-rank value.  ok is false
// when xs is too small for any of them (fewer than 100 samples), in
// which case only the median is meaningful.
func highPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) < 10-1e-9 {
			continue
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		return p, s[rank-1], true
	}
	return 0, 0, false
}
