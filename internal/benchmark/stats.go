package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPerMille are the candidates for the reported tail, highest first, in
// thousandths so that the sample count beyond each is exact.
var tailPerMille = []int{999, 990, 950, 900, 750}

// highestPercentile applies the reporting rule for tails: the highest
// percentile that still has at least ten samples beyond it. Below forty
// samples no tail qualifies and the median stands in, reported as p50.
func highestPercentile(xs []float64) (value, p float64) {
	for _, pm := range tailPerMille {
		if len(xs)*(1000-pm)/1000 >= 10 {
			p := float64(pm) / 10
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method) — the
// run-to-run spread the benchmark contract is judged by. It needs two
// values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after clamping, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}
