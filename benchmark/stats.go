package main

import (
	"math"
	"slices"
)

// quantile returns the q-th quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the sample
// at or below it. It returns 0 for an empty sample.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

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

// cv is the coefficient of variation: population standard deviation
// over the mean.
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

// speedOf converts the calibration times bracketing an interval into
// the host's speed over it, relative to the reference host.
func speedOf(calBeforeMS, calAfterMS float64) float64 {
	return CalRefMS / ((calBeforeMS + calAfterMS) / 2)
}

// normRate and normDuration express a measurement as the reference host
// would have read it: a host running at `speed` completes speed times
// the work per second and takes 1/speed as long.
func normRate(rate, speed float64) float64  { return rate / speed }
func normDuration(d, speed float64) float64 { return d * speed }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
