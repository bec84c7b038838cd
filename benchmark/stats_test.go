package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python 3, the driver's method.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // extrapolates below the minimum, as Python does
		{[]float64{5}, 5, 5, 5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for p, want := range map[float64]float64{0: 10, 50: 25, 100: 40, 95: 38.5, 25: 17.5} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSpreadIsInterquartileShareOfMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %g, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

func TestSummariseAtKeepsQuartilesOfTheWholeSample(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	d := summariseAt(xs, 95)
	if !near(d.Value, 9.55) || !near(d.Q1, 2.75) || !near(d.Q3, 8.25) || d.N != 10 {
		t.Errorf("summariseAt = %+v", d)
	}
}
