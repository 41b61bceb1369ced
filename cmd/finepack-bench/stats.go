package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is a sample's median and quartiles.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method, which
// extrapolates for very small samples), so the spreads printed here are the
// ones a Python reader of the result files computes.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Med: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Q1: q(1), Med: q(2), Q3: q(3)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Med)
}

// tailPerMille returns the highest of p99.9, p99 and p90 (in per-mille)
// that has at least ten samples beyond it, or false when even p90 has
// fewer: 1000 samples give p99, 100 give p90, 10 give none.
func tailPerMille(n int) (int, bool) {
	for _, pm := range []int{999, 990, 900} {
		if n*(1000-pm) >= 10*1000 {
			return pm, true
		}
	}
	return 0, false
}

// percentileName renders a per-mille percentile as "p99", "p99.9".
func percentileName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%d.%d", pm/10, pm%10)
}

// percentile returns the nearest-rank percentile (in per-mille) of xs.
func percentile(xs []float64, pm int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s)*pm + 999) / 1000
	if k < 1 {
		k = 1
	}
	return s[k-1]
}
