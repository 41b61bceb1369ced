// Command finepack-sim runs the paper's experiments and prints each
// table/figure's rows. Usage:
//
//	finepack-sim [flags] <experiment>
//
// The figure and table verbs are the entries of the experiments index
// (experiments.Experiments); observe, stream, topo-crossover and
// collective take their inputs from flags; report and all walk the index.
// `finepack-sim -h` lists every verb.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"runtime"
	"runtime/pprof"

	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/faults"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/workloads"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "workload problem-size multiplier")
		iters     = flag.Int("iters", 3, "iterations per workload")
		seed      = flag.Int64("seed", 1, "trace generation seed")
		gpus      = flag.Int("gpus", 4, "number of GPUs")
		ber       = flag.Float64("ber", 0, "per-link bit-error rate injected into every run (0 = ideal links)")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection random seed")
		degrade   = flag.String("degrade", "", "persistent link degradation src:dst:fraction[@us], '*' endpoint wildcards (e.g. '0:1:0.5@10')")
		parallel  = flag.Int("parallel", 0, "independent simulation runs to execute concurrently (0 = GOMAXPROCS, 1 = serial)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.BoolVar(&chart, "chart", false, "also render bar charts for fig9/fig11")
	flag.BoolVar(&jsonOut, "json", false, "emit machine-readable JSON instead of tables")
	flag.BoolVar(&csvOut, "csv", false, "emit CSV instead of tables")
	flag.StringVar(&svgDir, "svg", "", "also write figure SVGs into this directory")
	registerObserveFlags()
	registerStreamFlags()
	registerTopoFlags()
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cfg := sim.DefaultConfig()
	cfg.Faults.BER = *ber
	cfg.Faults.Seed = *faultSeed
	var topoErr error
	if resolvedTopo, topoErr = resolveTopo(); topoErr != nil {
		fmt.Fprintln(os.Stderr, "finepack-sim:", topoErr)
		os.Exit(2)
	}
	cfg.Topology = resolvedTopo
	if resolvedTopo != nil && *gpus == 4 {
		// The topology fixes the system size unless -gpus overrides it.
		*gpus = resolvedTopo.NumGPUs()
	}
	if *degrade != "" {
		d, err := parseDegrade(*degrade)
		if err != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", err)
			os.Exit(2)
		}
		cfg.Faults.Degradations = append(cfg.Faults.Degradations, d)
	}
	suite := experiments.New(
		cfg,
		workloads.Params{Scale: *scale, Iterations: *iters, Seed: *seed},
		*gpus,
	)
	suite.Parallelism = *parallel
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", err)
			os.Exit(2)
		}
	}
	err := run(suite, flag.Arg(0))
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if werr := writeHeapProfile(*memProf); werr != nil {
			fmt.Fprintln(os.Stderr, "finepack-sim:", werr)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "finepack-sim:", err)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap after a final GC so the profile
// reflects live retained memory, not transient garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// parseDegrade parses a -degrade spec: src:dst:fraction, optionally
// suffixed @us for the onset time. '*' on an endpoint matches every GPU.
func parseDegrade(spec string) (faults.Degradation, error) {
	var d faults.Degradation
	body, at, hasAt := strings.Cut(spec, "@")
	parts := strings.Split(body, ":")
	if len(parts) != 3 {
		return d, fmt.Errorf("bad -degrade %q: want src:dst:fraction[@us]", spec)
	}
	endpoint := func(s string) (int, error) {
		if s == "*" {
			return -1, nil
		}
		return strconv.Atoi(s)
	}
	var err error
	if d.Link.Src, err = endpoint(parts[0]); err != nil {
		return d, fmt.Errorf("bad -degrade source %q: %v", parts[0], err)
	}
	if d.Link.Dst, err = endpoint(parts[1]); err != nil {
		return d, fmt.Errorf("bad -degrade destination %q: %v", parts[1], err)
	}
	if d.BandwidthFraction, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return d, fmt.Errorf("bad -degrade fraction %q: %v", parts[2], err)
	}
	if hasAt {
		us, err := strconv.ParseFloat(at, 64)
		if err != nil || us < 0 {
			return d, fmt.Errorf("bad -degrade onset %q: want microseconds", at)
		}
		d.At = des.Time(us * float64(des.Microsecond))
	}
	return d, nil
}

// usageText heads the -h output. It is written by hand, so
// TestUsageMatchesDispatch checks it names exactly the verbs run knows.
const usageText = `usage: finepack-sim [flags] <experiment>

experiments:
  fig2        goodput vs transfer size (PCIe, NVLink)
  fig4        remote store size mix egressing L1
  fig9        4-GPU speedup: p2p / dma / finepack / infinite
  fig10       wire-byte breakdown normalized to DMA
  fig11       stores aggregated per FinePack packet
  fig12       sub-header byte sensitivity (2-6B)
  fig13       bandwidth sensitivity (PCIe 4/5/6, infinite)
  tab2        sub-header tradeoff table
  alt-design  config-packet alternate design comparison
  wc          FinePack vs write-combining-alone wire bytes
  gps         FinePack vs GPS-like comparator
  scale16     16 GPUs on PCIe 6.0
  ablations   queue-capacity / open-window / flush-timeout sweeps
  nvlink-fp   FinePack efficiency on a flit-based (NVLink-class) link
  overlap     compute/communication overlap decomposition
  um          UM page-migration / remote-read baselines (§II-A)
  scaling     strong-scaling curve: geomean speedup at 2/4/8/16 GPUs
  ber-sweep   robustness crossover: slowdown & replays vs link bit-error rate
  observe     one instrumented run; write -trace-json / -metrics-out /
              -timeline-svg artifacts (workload/paradigm via -trace-workload,
              -trace-paradigm)
  stream      one run fed from a v2 trace file or synthesis profile
              (-stream-trace / -stream-synth, paradigm via -stream-paradigm);
              streams in O(window) memory
  topo-crossover  goodput vs store fanout on a hierarchical multi-hop
              fabric while a ring AllReduce shares it (default -topo pod4x8)
  collective  one synthesized collective (ring/tree AllReduce, fused GEMM)
              under p2p and finepack, honoring -topo
  report      one self-contained markdown report with every experiment
  diag        raw per-run quantities for every workload and paradigm
  all         everything above

flags:
`

func usage() {
	fmt.Fprint(os.Stderr, usageText)
	flag.PrintDefaults()
}

// flagVerbs are the verbs outside the experiments index: each reads its
// own CLI flags, or (report, all) walks the index itself.
var flagVerbs = map[string]func(*experiments.Suite) error{
	"observe":        showObserve,
	"stream":         showStream,
	"topo-crossover": showTopoCrossover,
	"collective":     showCollective,
	"report":         showReport,
	"all":            showAll,
}

// dispatch resolves a verb to its command, nil when there is none.
func dispatch(name string) func(*experiments.Suite) error {
	if f, ok := flagVerbs[name]; ok {
		return f
	}
	if e, ok := experiments.Lookup(name); ok {
		return func(s *experiments.Suite) error { return show(s, e) }
	}
	return nil
}

func run(s *experiments.Suite, name string) error {
	f := dispatch(name)
	if f == nil {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return f(s)
}

// showAll runs every experiment that is also in the report, in the
// index's order, with a blank line after each.
func showAll(s *experiments.Suite) error {
	for _, e := range experiments.Experiments() {
		if e.Verb == "" || e.Title == "" {
			continue
		}
		if err := show(s, e); err != nil {
			return fmt.Errorf("%s: %w", e.Verb, err)
		}
		fmt.Println()
	}
	return nil
}

func showReport(s *experiments.Suite) error {
	return s.WriteReport(context.Background(), os.Stdout)
}

// show runs one experiment and prints it: its SVG into -svg, then each
// part (blank-line separated), then its bar chart under -chart.
func show(s *experiments.Suite, e experiments.Experiment) error {
	out, err := e.Run(s)
	if err != nil {
		return err
	}
	if out.SVG != nil {
		if err := writeSVG(e.Verb, out.SVG); err != nil {
			return err
		}
	}
	for i, p := range out.Parts {
		if i > 0 {
			fmt.Println()
		}
		name := p.Name
		if name == "" {
			name = e.Verb
		}
		if err := emit(name, p.Data, p.Table); err != nil {
			return err
		}
	}
	if chart && out.Chart != nil {
		out.Chart.Render(os.Stdout)
	}
	return nil
}

// chart enables supplementary bar-chart rendering; jsonOut switches the
// output to one JSON document per experiment.
var (
	chart   bool
	jsonOut bool
	csvOut  bool
	svgDir  string
)

// writeSVG renders a figure into svgDir when -svg is set.
func writeSVG(name string, render func(io.Writer) error) error {
	if svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(svgDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(svgDir, name+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return f.Sync()
}

func render(t *stats.Table) error {
	if csvOut {
		return t.WriteCSV(os.Stdout)
	}
	t.Render(os.Stdout)
	return nil
}

// emit prints either the rendered table or a JSON document with the raw
// experiment data, depending on the -json flag.
func emit(name string, data any, t *stats.Table) error {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"experiment": name, "data": data})
	}
	return render(t)
}
