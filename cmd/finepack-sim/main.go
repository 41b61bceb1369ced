// Command finepack-sim runs the paper's experiments and prints each
// table/figure's rows. Usage:
//
//	finepack-sim [flags] <experiment>
//
// Experiments: fig2 fig4 fig9 fig10 fig11 fig12 fig13 tab2 alt-design wc
// gps scale16 ber-sweep observe all
package main

import (
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

func usage() {
	fmt.Fprintf(os.Stderr, `usage: finepack-sim [flags] <experiment>

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
`)
	flag.PrintDefaults()
}

func run(s *experiments.Suite, name string) error {
	exps := map[string]func(*experiments.Suite) error{
		"fig2":           showFig2,
		"fig4":           showFig4,
		"fig9":           showFig9,
		"fig10":          showFig10,
		"fig11":          showFig11,
		"fig12":          showFig12,
		"fig13":          showFig13,
		"tab2":           showTab2,
		"alt-design":     showAltDesign,
		"wc":             showWC,
		"gps":            showGPS,
		"scale16":        showScale16,
		"diag":           showDiag,
		"ablations":      showAblations,
		"nvlink-fp":      showNVLinkFP,
		"overlap":        showOverlap,
		"um":             showUM,
		"scaling":        showScaling,
		"ber-sweep":      showBERSweep,
		"observe":        showObserve,
		"stream":         showStream,
		"report":         showReport,
		"topo-crossover": showTopoCrossover,
		"collective":     showCollective,
	}
	if name == "all" {
		for _, n := range []string{
			"fig2", "fig4", "fig9", "fig10", "fig11", "fig12", "fig13",
			"tab2", "alt-design", "wc", "gps", "scale16", "ablations",
			"nvlink-fp", "overlap", "um", "scaling",
		} {
			if err := exps[n](s); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Println()
		}
		return nil
	}
	f, ok := exps[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return f(s)
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

func showFig2(*experiments.Suite) error {
	points := experiments.Fig2()
	if err := writeSVG("fig2", func(w io.Writer) error {
		return experiments.Fig2SVG(points, w)
	}); err != nil {
		return err
	}
	return emit("fig2", points, experiments.Fig2Table(points))
}

func showFig4(s *experiments.Suite) error {
	rows, err := s.Fig4()
	if err != nil {
		return err
	}
	if err := writeSVG("fig4", func(w io.Writer) error {
		return experiments.Fig4SVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("fig4", rows, experiments.Fig4Table(rows))
}

func showFig9(s *experiments.Suite) error {
	rows, geo, err := s.Fig9()
	if err != nil {
		return err
	}
	if err := writeSVG("fig9", func(w io.Writer) error {
		return experiments.Fig9SVG(rows, w)
	}); err != nil {
		return err
	}
	if err := emit("fig9", map[string]any{"rows": rows, "geomean": geo},
		experiments.Fig9Table(rows, geo)); err != nil {
		return err
	}
	if chart {
		c := stats.NewBarChart("Fig 9 (finepack bars)", 50)
		for _, r := range rows {
			c.Add(r.Workload, r.Speedup[sim.FinePack])
		}
		c.Render(os.Stdout)
	}
	return nil
}

func showFig10(s *experiments.Suite) error {
	rows, err := s.Fig10()
	if err != nil {
		return err
	}
	if err := writeSVG("fig10", func(w io.Writer) error {
		return experiments.Fig10SVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("fig10", rows, experiments.Fig10Table(rows))
}

func showFig11(s *experiments.Suite) error {
	rows, mean, err := s.Fig11()
	if err != nil {
		return err
	}
	if err := writeSVG("fig11", func(w io.Writer) error {
		return experiments.Fig11SVG(rows, w)
	}); err != nil {
		return err
	}
	if err := emit("fig11", map[string]any{"rows": rows, "mean": mean},
		experiments.Fig11Table(rows, mean)); err != nil {
		return err
	}
	if chart {
		c := stats.NewBarChart("Fig 11 (stores/packet)", 50)
		for _, r := range rows {
			c.Add(r.Workload, r.StoresPerPacket)
		}
		c.Render(os.Stdout)
	}
	return nil
}

func showFig12(s *experiments.Suite) error {
	rows, geo, err := s.Fig12()
	if err != nil {
		return err
	}
	if err := writeSVG("fig12", func(w io.Writer) error {
		return experiments.Fig12SVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("fig12", map[string]any{"rows": rows, "geomean": geo},
		experiments.Fig12Table(rows, geo))
}

func showFig13(s *experiments.Suite) error {
	rows, err := s.Fig13()
	if err != nil {
		return err
	}
	if err := writeSVG("fig13", func(w io.Writer) error {
		return experiments.Fig13SVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("fig13", rows, experiments.Fig13Table(rows))
}

func showTab2(*experiments.Suite) error {
	return emit("tab2", experiments.Tab2Rows(), experiments.Tab2Table())
}

func showAltDesign(s *experiments.Suite) error {
	rows, err := s.AltDesign()
	if err != nil {
		return err
	}
	return emit("alt-design", rows, experiments.AltDesignTable(rows))
}

func showWC(s *experiments.Suite) error {
	rows, overall, err := s.WCCompare()
	if err != nil {
		return err
	}
	return emit("wc", map[string]any{"rows": rows, "overallReductionPc": overall},
		experiments.WCTable(rows, overall))
}

func showGPS(s *experiments.Suite) error {
	rows, ratio, err := s.GPSCompare()
	if err != nil {
		return err
	}
	return emit("gps", map[string]any{"rows": rows, "fpOverGPS": ratio},
		experiments.GPSTable(rows, ratio))
}

func showAblations(s *experiments.Suite) error {
	entries, err := s.AblationQueueEntries()
	if err != nil {
		return err
	}
	if err := emit("ablation-entries", entries, experiments.AblationTable(
		"Ablation: remote write queue entries per partition (§VI-B future work)", entries)); err != nil {
		return err
	}
	fmt.Println()
	windows, err := s.AblationOpenWindows()
	if err != nil {
		return err
	}
	if err := emit("ablation-windows", windows, experiments.AblationTable(
		"Ablation: open outer transactions per destination (§IV-C)", windows)); err != nil {
		return err
	}
	fmt.Println()
	timeouts, err := s.AblationFlushTimeout()
	if err != nil {
		return err
	}
	return emit("ablation-timeout", timeouts, experiments.AblationTable(
		"Ablation: inactivity-timeout flush (§IV-B)", timeouts))
}

func showNVLinkFP(*experiments.Suite) error {
	rows := experiments.NVLinkFinePack()
	return emit("nvlink-fp", rows, experiments.NVLinkFinePackTable(rows))
}

func showOverlap(s *experiments.Suite) error {
	rows, err := s.Overlap()
	if err != nil {
		return err
	}
	return emit("overlap", rows, experiments.OverlapTable(rows))
}

func showUM(s *experiments.Suite) error {
	rows, err := s.UMCompare()
	if err != nil {
		return err
	}
	return emit("um", rows, experiments.UMTable(rows))
}

func showScaling(s *experiments.Suite) error {
	rows, err := s.Scaling()
	if err != nil {
		return err
	}
	if err := writeSVG("scaling", func(w io.Writer) error {
		return experiments.ScalingSVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("scaling", rows, experiments.ScalingTable(rows))
}

func showBERSweep(s *experiments.Suite) error {
	rows, err := s.BERSweep(nil)
	if err != nil {
		return err
	}
	if err := writeSVG("ber-sweep", func(w io.Writer) error {
		return experiments.BERSweepSVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("ber-sweep", rows, experiments.BERSweepTable(rows))
}

func showReport(s *experiments.Suite) error {
	return s.WriteReport(os.Stdout)
}

func showDiag(s *experiments.Suite) error {
	rows, err := s.Diag()
	if err != nil {
		return err
	}
	return emit("diag", rows, experiments.DiagTable(rows))
}

func showScale16(s *experiments.Suite) error {
	res, err := s.Scale16()
	if err != nil {
		return err
	}
	return emit("scale16", res, experiments.Scale16Table(res))
}
