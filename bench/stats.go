package bench

import (
	"math"
	"sort"
)

// Quartiles returns the first quartile, median and third quartile of vals by
// the exclusive method Python's statistics.quantiles(values, n=4) uses, so
// the spreads printed here are the ones the driver computes. Fewer than two
// values give that value (or NaN) three times.
func Quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := k*(n+1) - 4*j // outside [0,4] at the ends: extrapolates, as Python does
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(2), at(3)
}

// Median returns the median of vals (NaN when empty).
func Median(vals []float64) float64 {
	_, m, _ := Quartiles(vals)
	return m
}

// Spread is the interquartile distance as a share of the median.
func Spread(vals []float64) float64 {
	q1, m, q3 := Quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// Geomean is the geometric mean of positive values.
func Geomean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// meanStd returns the mean and the population standard deviation.
func meanStd(vals []float64) (mean, std float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(std / float64(len(vals)))
}
