package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/topo"
)

// Experiment is one entry of the evaluation index: the single ordered
// list that the finepack-sim verbs, its `all` verb and the markdown
// report all read. An entry with both a Verb and a Title is part of
// `all` and of the report.
type Experiment struct {
	// Verb names the experiment on the finepack-sim command line; empty
	// for a report-only section.
	Verb string
	// Title heads the experiment's report section; empty leaves it out
	// of the report.
	Title string
	// Run executes the experiment's sweep and packages what it shows.
	Run func(*Suite) (*Output, error)
}

// Output is what one experiment shows.
type Output struct {
	// Parts are shown in order: one table or JSON document each.
	Parts []Part
	// SVG renders the experiment's figure; nil when it has none.
	SVG func(io.Writer) error
	// Chart is an optional terminal bar chart shown after the parts.
	Chart *stats.BarChart
}

// Part is one table of an experiment's output and the data behind it.
type Part struct {
	// Name tags the part's JSON document; empty means the experiment's
	// verb.
	Name string
	// Section, when set, gives the part a report section of its own,
	// headed "<Title> — <Section>"; the heading then stands in for the
	// table's title.
	Section string
	Data    any
	Table   *stats.Table
}

// one packages a single-table output.
func one(data any, t *stats.Table) *Output {
	return &Output{Parts: []Part{{Data: data, Table: t}}}
}

// index is the evaluation in report order.
var index = []Experiment{
	{"fig2", "Fig 2 — goodput vs transfer size", func(*Suite) (*Output, error) {
		points := Fig2()
		out := one(points, Fig2Table(points))
		out.SVG = func(w io.Writer) error { return Fig2SVG(points, w) }
		return out, nil
	}},
	{"fig4", "Fig 4 — store sizes egressing L1", func(s *Suite) (*Output, error) {
		rows, err := s.Fig4()
		if err != nil {
			return nil, err
		}
		out := one(rows, Fig4Table(rows))
		out.SVG = func(w io.Writer) error { return Fig4SVG(rows, w) }
		return out, nil
	}},
	{"fig9", "Fig 9 — 4-GPU strong scaling", func(s *Suite) (*Output, error) {
		rows, geo, err := s.Fig9()
		if err != nil {
			return nil, err
		}
		out := one(map[string]any{"rows": rows, "geomean": geo}, Fig9Table(rows, geo))
		out.SVG = func(w io.Writer) error { return Fig9SVG(rows, w) }
		out.Chart = stats.NewBarChart("Fig 9 (finepack bars)", 50)
		for _, r := range rows {
			out.Chart.Add(r.Workload, r.Speedup[sim.FinePack])
		}
		return out, nil
	}},
	{"fig10", "Fig 10 — wire-byte breakdown", func(s *Suite) (*Output, error) {
		rows, err := s.Fig10()
		if err != nil {
			return nil, err
		}
		out := one(rows, Fig10Table(rows))
		out.SVG = func(w io.Writer) error { return Fig10SVG(rows, w) }
		return out, nil
	}},
	{"fig11", "Fig 11 — stores per packet", func(s *Suite) (*Output, error) {
		rows, mean, err := s.Fig11()
		if err != nil {
			return nil, err
		}
		out := one(map[string]any{"rows": rows, "mean": mean}, Fig11Table(rows, mean))
		out.SVG = func(w io.Writer) error { return Fig11SVG(rows, w) }
		out.Chart = stats.NewBarChart("Fig 11 (stores/packet)", 50)
		for _, r := range rows {
			out.Chart.Add(r.Workload, r.StoresPerPacket)
		}
		return out, nil
	}},
	{"fig12", "Fig 12 — sub-header sensitivity", func(s *Suite) (*Output, error) {
		rows, geo, err := s.Fig12()
		if err != nil {
			return nil, err
		}
		out := one(map[string]any{"rows": rows, "geomean": geo}, Fig12Table(rows, geo))
		out.SVG = func(w io.Writer) error { return Fig12SVG(rows, w) }
		return out, nil
	}},
	{"fig13", "Fig 13 — bandwidth sensitivity", func(s *Suite) (*Output, error) {
		rows, err := s.Fig13()
		if err != nil {
			return nil, err
		}
		out := one(rows, Fig13Table(rows))
		out.SVG = func(w io.Writer) error { return Fig13SVG(rows, w) }
		return out, nil
	}},
	{"tab2", "Table II — sub-header tradeoff", func(*Suite) (*Output, error) {
		return one(Tab2Rows(), Tab2Table()), nil
	}},
	{"alt-design", "§VI-B — config-packet alternate design", func(s *Suite) (*Output, error) {
		rows, err := s.AltDesign()
		if err != nil {
			return nil, err
		}
		return one(rows, AltDesignTable(rows)), nil
	}},
	{"wc", "§VI-A — write combining alone", func(s *Suite) (*Output, error) {
		rows, overall, err := s.WCCompare()
		if err != nil {
			return nil, err
		}
		return one(map[string]any{"rows": rows, "overallReductionPc": overall},
			WCTable(rows, overall)), nil
	}},
	{"gps", "§VI-B — GPS-like comparator", func(s *Suite) (*Output, error) {
		rows, ratio, err := s.GPSCompare()
		if err != nil {
			return nil, err
		}
		return one(map[string]any{"rows": rows, "fpOverGPS": ratio},
			GPSTable(rows, ratio)), nil
	}},
	{"scale16", "§VI-B — 16 GPUs on PCIe 6.0", func(s *Suite) (*Output, error) {
		res, err := s.Scale16()
		if err != nil {
			return nil, err
		}
		return one(res, Scale16Table(res)), nil
	}},
	{"um", "§II-A — UM / remote-read baselines", func(s *Suite) (*Output, error) {
		rows, err := s.UMCompare()
		if err != nil {
			return nil, err
		}
		return one(rows, UMTable(rows)), nil
	}},
	{"overlap", "Overlap decomposition", func(s *Suite) (*Output, error) {
		rows, err := s.Overlap()
		if err != nil {
			return nil, err
		}
		return one(rows, OverlapTable(rows)), nil
	}},
	{"ablations", "Ablation", func(s *Suite) (*Output, error) {
		entries, err := s.AblationQueueEntries()
		if err != nil {
			return nil, err
		}
		windows, err := s.AblationOpenWindows()
		if err != nil {
			return nil, err
		}
		timeouts, err := s.AblationFlushTimeout()
		if err != nil {
			return nil, err
		}
		return &Output{Parts: []Part{
			{"ablation-entries", "queue entries", entries, AblationTable(
				"Ablation: remote write queue entries per partition (§VI-B future work)", entries)},
			{"ablation-windows", "open windows", windows, AblationTable(
				"Ablation: open outer transactions per destination (§IV-C)", windows)},
			{"ablation-timeout", "flush timeout", timeouts, AblationTable(
				"Ablation: inactivity-timeout flush (§IV-B)", timeouts)},
		}}, nil
	}},
	{"nvlink-fp", "§IV-C — FinePack on a flit-based link", func(*Suite) (*Output, error) {
		rows := NVLinkFinePack()
		return one(rows, NVLinkFinePackTable(rows)), nil
	}},
	{"scaling", "Strong scaling 2–16 GPUs", func(s *Suite) (*Output, error) {
		rows, err := s.Scaling()
		if err != nil {
			return nil, err
		}
		out := one(rows, ScalingTable(rows))
		out.SVG = func(w io.Writer) error { return ScalingSVG(rows, w) }
		return out, nil
	}},
	// dgx2x8 keeps the report tractable; the full 32-GPU pod4x8 sweep
	// runs via `finepack-sim topo-crossover` or a finepackd
	// topo-crossover job, which take their topology and fanouts as input.
	{"", "Topology crossover — multi-hop goodput", func(s *Suite) (*Output, error) {
		spec, err := topo.Preset(topo.PresetDGX2x8)
		if err != nil {
			return nil, err
		}
		rows, err := s.TopoCrossover(spec, []int{1, 4, 15})
		if err != nil {
			return nil, err
		}
		return one(rows, TopoCrossoverTable(rows)), nil
	}},
	{"ber-sweep", "", func(s *Suite) (*Output, error) {
		rows, err := s.BERSweep(nil)
		if err != nil {
			return nil, err
		}
		out := one(rows, BERSweepTable(rows))
		out.SVG = func(w io.Writer) error { return BERSweepSVG(rows, w) }
		return out, nil
	}},
	{"diag", "", func(s *Suite) (*Output, error) {
		rows, err := s.Diag()
		if err != nil {
			return nil, err
		}
		return one(rows, DiagTable(rows)), nil
	}},
}

// Experiments returns the evaluation index in report order.
func Experiments() []Experiment { return slices.Clone(index) }

// Lookup returns the experiment a verb names.
func Lookup(verb string) (Experiment, bool) {
	for _, e := range index {
		if verb != "" && e.Verb == verb {
			return e, true
		}
	}
	return Experiment{}, false
}

// WriteReport runs every experiment with a Title and writes one
// self-contained markdown report: the reproducibility artifact
// `finepack-sim report` produces. Sections are written in index order as
// each experiment finishes, so the bytes do not depend on Parallelism.
//
// Cancellation is cooperative: ctx is checked before every experiment, so
// a canceled or deadline-expired caller (a drained daemon job, a user
// hitting ^C) aborts between sweeps with the prefix already written,
// instead of completing the remaining figures silently.
func (s *Suite) WriteReport(ctx context.Context, w io.Writer) error {
	fmt.Fprintf(w, "# FinePack experiment report\n\n")
	fmt.Fprintf(w, "System: %d GPUs, %s (%.0f GB/s/dir), FinePack %dB sub-headers, %d-entry partitions.\n",
		s.NumGPUs, s.Cfg.Gen, s.Cfg.Gen.Bandwidth()/1e9,
		s.Cfg.FinePack.SubheaderBytes, s.Cfg.FinePack.QueueEntries)
	fmt.Fprintf(w, "Workloads at scale %.2f, %d iterations, seed %d.\n\n",
		s.Params.Scale, s.Params.Iterations, s.Params.Seed)
	for _, e := range index {
		if e.Title == "" {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("report: canceled before %q: %w", e.Title, err)
		}
		out, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("report: %s: %w", e.Title, err)
		}
		for _, p := range out.Parts {
			title, t := e.Title, p.Table
			if p.Section != "" {
				title, t = e.Title+" — "+p.Section, t.WithTitle("")
			}
			fmt.Fprintf(w, "## %s\n\n```\n", title)
			t.Render(w)
			fmt.Fprintf(w, "```\n\n")
		}
	}
	return nil
}
