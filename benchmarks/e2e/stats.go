package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the driver's. It needs two or more points.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the bounds are judged against.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(m), true
}

// tailPercentile is the highest percentile of n samples that still has
// ten samples beyond it, 100*(1-10/n), floored at the median.
func tailPercentile(n int) float64 {
	if n <= 20 {
		return 50
	}
	return 100 * (1 - 10/float64(n))
}

// percentile by linear interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
