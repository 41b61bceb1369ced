package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b []float64
		ms   metricSpec
		want string
	}{
		{"same", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.02, 9.95, 10.1, 10, 9.9}, lower, "within"},
		{"slower", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{12, 12.1, 11.9, 12, 12.05}, lower, "worse"},
		{"faster", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{8, 8.1, 7.9, 8, 8.05}, lower, "better"},
		{"higher is better", []float64{100, 101, 99, 100, 100.5}, []float64{80, 81, 79, 80, 80.5}, higher, "worse"},
		{"noisy and overlapping", []float64{8, 12, 10, 9, 13}, []float64{12, 14, 9, 13, 11}, lower, "unresolved"},
		{"noisy but apart", []float64{8, 12, 10, 9, 11}, []float64{20, 26, 22, 21, 25}, lower, "worse"},
		{"too few runs", []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12, 12.05}, lower, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.ms); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	run := func(setup float64, trace bool, passes ...float64) *runResult {
		m := metrics{"setup_s": {Value: setup, Unit: "s", Samples: passes}}
		return &runResult{Workload: "paper-suite", Trace: trace, Metrics: m}
	}
	write := func(path string, runs ...*runResult) {
		for _, r := range runs {
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b, one := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "one.json")
	// Per-pass samples and traced runs do not count: each set is its plain
	// runs' values, 4.0–4.1 against 5.0–5.1.
	write(a, run(4, false, 9, 9), run(4.05, false, 1, 1), run(4.1, false), run(4, false), run(4.05, false), run(99, true))
	write(b, run(5, false, 1, 1), run(5.05, false), run(5.1, false), run(5, false), run(5.05, false))
	write(one, run(5, false, 5, 5.1, 4.9, 5, 5.05))
	spec := &benchmarkSpec{EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	var out bytes.Buffer
	worse, err := compareFiles(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "4.05 s [4, 4.075] 5") {
		t.Errorf("worse=%v, output:\n%s", worse, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, spec, a, a); err != nil || worse || !strings.Contains(out.String(), "within") {
		t.Errorf("a set against itself: worse=%v err=%v, output:\n%s", worse, err, out.String())
	}
	// One run is not a set to judge, however many passes it has.
	out.Reset()
	if worse, err := compareFiles(&out, spec, a, one); err != nil || worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("against one run: worse=%v err=%v, output:\n%s", worse, err, out.String())
	}
}
