// Command finepack-bench is the benchmark of record: it measures four
// workloads end to end (plain runs) and layer by layer (-trace runs),
// checks that every output is correct, and compares result sets.
//
//	go run . -workload all -seed 1            # every workload, each in its own process
//	go run . -workload paper-suite -trace     # per-layer ledger of one workload
//	go run . -compare A.json B.json           # verdict per workload × metric
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "finepack-bench:", err)
	}
	os.Exit(code)
}

// run executes the command and returns its exit status.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("finepack-bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 1, "input seed; seed 1 is also checked against the committed result digests")
	seconds := fs.Float64("seconds", 0, "keep measuring passes for this many seconds (0: exactly 5 measured passes)")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "append the run's results to this JSON result set")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(joinBoolValues(args, "trace")); err != nil {
		return 2, nil
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return 1, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two result files")
		}
		worse, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return 1, err
		}
		if worse {
			return 1, nil
		}
		return 0, nil
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seed < 1 || *seed >= 1<<40 {
		return 2, fmt.Errorf("-seed %d outside [1, 2^40)", *seed)
	}
	if *seconds < 0 || math.IsNaN(*seconds) || *seconds > 3600 {
		return 2, fmt.Errorf("-seconds %v outside [0, 3600]", *seconds)
	}
	if *name == "all" {
		return runAll(stdout, args)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	o := options{seed: *seed, seconds: *seconds, passes: 5}
	if *seconds > 0 {
		o.passes = 3
	}
	if *seed == 1 {
		if o.expected, err = loadExpected(); err != nil {
			return 1, err
		}
	}
	if o.dir, err = scratchDir(); err != nil {
		return 1, err
	}
	defer os.RemoveAll(o.dir)

	var r *runResult
	if *traced {
		r, err = runTraced(w, o)
	} else {
		r, err = runPlain(w, o)
	}
	if err != nil {
		return 1, err
	}
	if *out != "" {
		r.Host = thisHost()
		if err := appendResult(*out, r); err != nil {
			return 1, err
		}
	}
	if !report(stdout, r, spec) {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList() {
		names = append(names, w.name)
	}
	return names
}

// joinBoolValues rewrites "-name 0|1|true|false" as "-name=value": the
// flag package reads a bool flag's value only in the "=" form.
func joinBoolValues(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// scratchDir creates a directory for the run's files under .bench_build
// in the current directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// benchmarkSpec is the part of BENCHMARK.json this command reads: the
// metrics every workload reports, with their bounds.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the current directory or
// the nearest parent that has one.
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchmarkSpec
			if err := json.Unmarshal(b, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &spec, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the current directory or its parents")
		}
		dir = parent
	}
}

// summaryLine is the last line a run prints: outcome counts and the
// BENCHMARK.json metrics of its kind (end-to-end or per-layer).
type summaryLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run's metrics by name and unit, then its summary line,
// and reports whether the run was correct and complete.
func report(w io.Writer, r *runResult, spec *benchmarkSpec) bool {
	kind := "end-to-end"
	want := spec.EndToEnd
	if r.Trace {
		kind, want = "per-layer", spec.PerLayer
	}
	fmt.Fprintf(w, "%s seed %d: %s metrics (%d of %d checked operations failed)\n", r.Workload, r.Seed, kind, r.Failed, r.Attempted)
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.6g %-13s", k, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, " q1 %.6g  q3 %.6g", m.Q1, m.Q3)
		}
		if m.N > 0 {
			fmt.Fprintf(w, "  n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	line := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryValue{}}
	for _, ms := range want {
		m, ok := r.Metrics[ms.Name]
		if !ok || m.Unit != ms.Unit {
			fmt.Fprintf(w, "  FAILED: BENCHMARK.json metric %s (%s) not measured\n", ms.Name, ms.Unit)
			line.Correct = false
			continue
		}
		line.Metrics[ms.Name] = summaryValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(w, "  FAILED:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", b)
	return line.Correct
}

// runAll runs every workload in a process of its own, so peak RSS is per
// workload, and prints a summary line over all of them (metrics prefixed
// by workload).
func runAll(stdout io.Writer, args []string) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	total := summaryLine{Correct: true, Metrics: map[string]summaryValue{}}
	for _, w := range workloadList() {
		cmd := exec.Command(exe, append(args, "-workload", w.name)...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return 1, err
		}
		if err := cmd.Start(); err != nil {
			return 1, err
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		scanErr := sc.Err()
		waitErr := cmd.Wait()
		var line summaryLine
		if scanErr != nil || json.Unmarshal([]byte(last), &line) != nil {
			return 1, fmt.Errorf("%s: no result (%v, %v)", w.name, scanErr, waitErr)
		}
		total.Correct = total.Correct && line.Correct && waitErr == nil
		total.Attempted += line.Attempted
		total.Failed += line.Failed
		for k, v := range line.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	b, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", b)
	if !total.Correct {
		return 1, nil
	}
	return 0, nil
}

// resultSet is the -out file: every run appended to it.
type resultSet struct {
	Runs []*runResult `json:"runs"`
}

func appendResult(path string, r *runResult) error {
	var set resultSet
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, r)
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
