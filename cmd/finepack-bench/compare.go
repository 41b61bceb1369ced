package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// minRuns is how many plain runs of a workload each set needs before
// -compare judges it: a set is summarized by its runs' medians, and fewer
// runs give no spread to judge a delta against.
const minRuns = 5

// runValues returns one workload's metric from every plain run of it in
// the set: each run's value, the median over its passes.
func runValues(set *resultSet, workload, name string) []float64 {
	var xs []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok && !r.Trace && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict judges B against A, each a list of per-run values:
// "unresolved" when a set has fewer than minRuns runs, or when a set's
// spread exceeds the bound and the sets' ranges overlap; "worse" or
// "better" when the medians differ by more than the bound in that
// direction; "within" otherwise.
func verdict(a, b []float64, ms metricSpec) (delta float64, v string) {
	sa, sb := summarize(a), summarize(b)
	switch {
	case sa.Med != 0:
		delta = (sb.Med - sa.Med) / math.Abs(sa.Med)
	case sb.Med != 0:
		delta = math.Copysign(math.Inf(1), sb.Med)
	}
	if len(a) < minRuns || len(b) < minRuns {
		return delta, "unresolved"
	}
	worse := delta
	if ms.Better == "higher" {
		worse = -delta
	}
	overlap := slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
	switch {
	case (sa.spread() > ms.Bound || sb.spread() > ms.Bound) && overlap:
		return delta, "unresolved"
	case worse > ms.Bound:
		return delta, "worse"
	case worse < -ms.Bound:
		return delta, "better"
	}
	return delta, "within"
}

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints, for every workload and BENCHMARK.json end-to-end
// metric the two sets share, each set's median and quartiles over its
// runs, the median delta, the bound and the verdict. It reports whether
// any verdict is "worse".
func compareFiles(w io.Writer, spec *benchmarkSpec, pathA, pathB string) (bool, error) {
	a, err := loadResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s, B = %s (per-run medians; fewer than %d runs is unresolved)\n", pathA, pathB, minRuns)
	fmt.Fprintf(w, "%-15s %-18s %-34s %-34s %9s %6s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "delta", "bound", "verdict")
	anyWorse := false
	for _, wl := range workloadNames() {
		for _, ms := range spec.EndToEnd {
			xa, xb := runValues(a, wl, ms.Name), runValues(b, wl, ms.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, v := verdict(xa, xb, ms)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-18s %-34s %-34s %+8.1f%% %5.0f%%  %s\n", wl, ms.Name,
				describe(xa, ms.Unit), describe(xb, ms.Unit), 100*delta, 100*ms.Bound, v)
		}
	}
	return anyWorse, nil
}

func describe(xs []float64, unit string) string {
	s := summarize(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] %d", s.Med, unit, s.Q1, s.Q3, s.N)
}
