package main

import "sort"

// quantiles cuts xs into n equal-probability groups and returns the n-1 cut
// points, by the same "exclusive" interpolation as Python's
// statistics.quantiles, so the spreads printed here match the ones a reader
// computes from the result files. A single sample is its own every cut.
func quantiles(xs []float64, n int) []float64 {
	if len(xs) == 0 {
		return make([]float64, n-1)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	cuts := make([]float64, n-1)
	if len(d) == 1 {
		for i := range cuts {
			cuts[i] = d[0]
		}
		return cuts
	}
	m := len(d) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*n)
		cuts[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return cuts
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	q := quantiles(xs, 4)
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
