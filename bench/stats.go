package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is the sample count a percentile needs above it before the
// harness will report it: p99 of 300 samples rests on 3 observations and
// is not a measurement.
const minBeyond = 10

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank is the index of the nearest-rank q-quantile (0 < q <= 1) among n
// sorted samples; the slack keeps 0.9*100 from rounding up to rank 91.
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	return max(0, min(i, n-1))
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sortedXs []float64, q float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	return sortedXs[rank(len(sortedXs), q)]
}

// percentile reports the q-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it (the percentile rule).
func percentile(xs []float64, q float64) (float64, error) {
	beyond := len(xs) - 1 - rank(len(xs), q)
	if len(xs) == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return quantile(sorted(xs), q), nil
}

// median is the middle of xs (mean of the two middles for even counts).
func median(xs []float64) float64 {
	s := sorted(xs)
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

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the acceptance driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// hostSpeedMs times a fixed dependent floating-point chain (no memory
// traffic, no repository code) and returns the median of five rounds in
// ms. The host is a shared two-CPU microVM whose speed moves by ±15 %
// for minutes at a time; this figure, printed with every run, tells a
// reader which regime a run met.
func hostSpeedMs() float64 {
	rounds := make([]float64, 5)
	for r := range rounds {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 10_000_000; i++ {
			x = x*1.0000001 + 0.5
			if x > 1e9 {
				x = 1
			}
		}
		rounds[r] = msSince(t0)
		if x < 0 {
			return 0 // unreachable: keeps the loop from being optimised away
		}
	}
	return median(rounds)
}
