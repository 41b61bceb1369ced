package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate "+expectedPath+" from full-size seed-1 passes")

func toyOptions(t *testing.T) options {
	return options{seed: 3, passes: 2, toy: true, dir: t.TempDir()}
}

// TestToyRuns runs every workload at toy size, plain and traced, and
// checks that each emits every BENCHMARK.json metric with its unit and
// no failed operation.
func TestToyRuns(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList() {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runPlain(w, toyOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, toyOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				r    *runResult
				want []metricSpec
			}{{plain, spec.EndToEnd}, {traced, spec.PerLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted == 0 {
					t.Errorf("trace=%v: %d of %d operations failed: %v", c.r.Trace, c.r.Failed, c.r.Attempted, c.r.Errors)
				}
				for _, ms := range c.want {
					if m, ok := c.r.Metrics[ms.Name]; !ok || m.Unit != ms.Unit || math.IsNaN(m.Value) {
						t.Errorf("trace=%v: metric %s = %+v, want a value in %s", c.r.Trace, ms.Name, m, ms.Unit)
					}
				}
			}
			if got := plain.Metrics["error_rate"]; got.Value != 0 || got.Unit != "fraction" {
				t.Errorf("error_rate = %+v", got)
			}
			sum := 0.0
			for k, m := range traced.Metrics {
				if strings.HasSuffix(k, ".cpu_pct") {
					sum += m.Value
				}
			}
			// A toy pass may end before the profiler's first sample.
			if sum != 0 && math.Abs(sum-100) > 1 {
				t.Errorf("cpu_pct sums to %g", sum)
			}
		})
	}
}

// TestPerturbedDigestTripsGate checks that a run whose outcome differs
// from the committed digest fails.
func TestPerturbedDigestTripsGate(t *testing.T) {
	w, _ := workloadByName("multihop-mix")
	o := toyOptions(t)
	inst, err := w.setup(o)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass()
	inst.pass(p)
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || len(p.digests) == 0 {
		t.Fatalf("reference pass: %d failed, digests %v", p.failed, p.digests)
	}
	o.expected = map[string]map[string]string{w.name: p.digests}
	r, err := runPlain(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("matching digests failed: %v", r.Errors)
	}

	perturbed := map[string]string{}
	for k, v := range p.digests {
		perturbed[k] = v
	}
	perturbed["finepack"] = strings.Repeat("0", 64)
	o.expected = map[string]map[string]string{w.name: perturbed}
	if r, err = runPlain(w, o); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != 1 || r.Metrics["error_rate"].Value == 0 {
		t.Errorf("perturbed digest: correct=%v failed=%d error_rate=%v", r.Correct, r.Failed, r.Metrics["error_rate"].Value)
	}
}

// TestExpected checks that the committed digests cover every workload;
// with -update it regenerates them from full-size seed-1 passes.
func TestExpected(t *testing.T) {
	if *update {
		got := map[string]map[string]string{}
		for _, w := range workloadList() {
			inst, err := w.setup(options{seed: 1, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			p := newPass()
			inst.pass(p)
			if err := inst.close(); err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("%s: %v", w.name, p.errs)
			}
			got[w.name] = p.digests
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expectedPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloadList() {
		if len(want[w.name]) == 0 {
			t.Errorf("%s: no digests", w.name)
		}
		for op, d := range want[w.name] {
			if !hex.MatchString(d) {
				t.Errorf("%s/%s: digest %q is not a SHA-256", w.name, op, d)
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the workloads this
// command runs and the limits its readers rely on.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, ms := range list {
			if !name.MatchString(ms.Name) || !unit.MatchString(ms.Unit) || seen[ms.Name] {
				t.Errorf("metric %+v: bad or repeated name or unit", ms)
			}
			seen[ms.Name] = true
			if ms.Better != "lower" && ms.Better != "higher" {
				t.Errorf("metric %s: better %q", ms.Name, ms.Better)
			}
		}
	}
	for _, ms := range spec.EndToEnd {
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("metric %s: bound %g", ms.Name, ms.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func TestJoinBoolValues(t *testing.T) {
	got := joinBoolValues([]string{"--workload", "hit", "--trace", "0", "--seed", "1", "-trace", "-out", "x"}, "trace")
	want := "--workload hit --trace=0 --seed 1 -trace -out x"
	if strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
}
