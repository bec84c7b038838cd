package main

import (
	"math"
	"slices"
)

// dist summarises one metric's samples inside a run: the reported value
// (a median unless the metric says otherwise), the quartiles and the count.
type dist struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the acceptance driver uses for run-to-run spread. Fewer than two
// samples have no spread: all three cut points are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// summarise reports the median of xs with its quartiles and count.
func summarise(xs []float64) dist { return summariseAt(xs, 50) }

// summariseAt reports the p-th percentile of xs with the quartiles and
// count of the whole sample.
func summariseAt(xs []float64, p float64) dist {
	q1, _, q3 := quartiles(xs)
	return dist{Value: percentile(xs, p), Q1: q1, Q3: q3, N: len(xs)}
}

// geomean is the geometric mean of strictly positive values; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise measure bounds are judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
