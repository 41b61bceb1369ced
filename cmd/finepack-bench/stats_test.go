package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 9, 4, 7, 1, 8, 3, 6, 5, 10}, 2.75, 5.5, 8.25},
	} {
		s := summarize(c.xs)
		if s.N != len(c.xs) || !near(s.Q1, c.q1) || !near(s.Med, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want q1 %g med %g q3 %g", c.xs, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Med != 7 || s.Q3 != 7 || s.spread() != 0 {
		t.Errorf("one sample: %+v", s)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
	}{
		{10000, "p99.9"}, {1000, "p99"}, {999, "p90"}, {100, "p90"}, {99, ""}, {10, ""}, {0, ""},
	} {
		pm, ok := tailPerMille(c.n)
		got := ""
		if ok {
			got = percentileName(pm)
		}
		if got != c.name {
			t.Errorf("tail percentile of %d samples = %q, want %q", c.n, got, c.name)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	// p99 of 1..1000 leaves exactly ten samples above it.
	if got := percentile(xs, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestSetLatencyNamesTail(t *testing.T) {
	m := metrics{}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	setLatency(m, "job_ms", xs)
	if _, ok := m["job_p50_ms"]; !ok {
		t.Error("no job_p50_ms")
	}
	if got := m["job_p90_ms"]; got.N != 150 || got.Unit != "ms" {
		t.Errorf("job_p90_ms = %+v, want n=150 in ms", got)
	}
	if _, ok := m["job_p99_ms"]; ok {
		t.Error("job_p99_ms reported from 150 samples")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
