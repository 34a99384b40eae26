package main

import (
	"math"
	"sort"
)

// A reported tail percentile has at least tailBeyond samples beyond it,
// and at least tailShare of them.
const (
	tailBeyond = 10
	tailShare  = 0.10
)

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least beyond
// samples beyond it, the (beyond+1)-th largest sample, and the percentile
// it sits at. Below 2×beyond samples that percentile would fall under the
// median, so the median is returned instead.
func tail(xs []float64, beyond int) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	n := len(s)
	if n < 2*beyond {
		return median(s), 50
	}
	i := n - 1 - beyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// tailCount is how many samples of n lie beyond the reported tail: at
// least tailBeyond, and at least tailShare of n.
func tailCount(n int) int {
	return max(tailBeyond, int(math.Ceil(tailShare*float64(n))))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}
