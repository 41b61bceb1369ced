package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"finepack/internal/collective"
	"finepack/internal/experiments"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/topo"
)

// Topology and collective flags. -topo applies to every experiment: the
// suite's config carries the resolved spec, so figures, observe runs and
// streams all route through the multi-hop fabric. The collective-* flags
// parameterize the `collective` verb.
var (
	topoFlag    string
	topoFanouts string

	collectiveKind     string
	collectiveGPUs     int
	collectivePayload  int
	collectiveRounds   int
	collectiveParadigm string

	// resolvedTopo is the parsed -topo spec (nil for the flat fabric),
	// resolved once in main and shared by every verb.
	resolvedTopo *topo.Spec
)

func registerTopoFlags() {
	flag.StringVar(&topoFlag, "topo", "",
		"topology: preset name ("+strings.Join(topo.PresetNames(), ", ")+") or @file.json with a custom spec")
	flag.StringVar(&topoFanouts, "topo-fanouts", "",
		"topo-crossover: comma-separated store fanouts (default 1,2,4,... up to N-1)")
	flag.StringVar(&collectiveKind, "collective-kind", collective.RingAllReduce,
		"collective: algorithm (ring-allreduce, tree-allreduce, allgather-gemm, gemm-reducescatter)")
	flag.IntVar(&collectiveGPUs, "collective-gpus", 0,
		"collective: participating ranks (default: the topology's GPU count, else -gpus)")
	flag.IntVar(&collectivePayload, "collective-payload", 1<<20,
		"collective: per-rank payload bytes")
	flag.IntVar(&collectiveRounds, "collective-rounds", 1,
		"collective: full repetitions of the collective")
	flag.StringVar(&collectiveParadigm, "collective-paradigm", "", "collective: run only this paradigm (default: p2p and finepack)")
}

// resolveTopo parses the -topo flag: empty keeps the flat fabric, a
// preset name expands it, and @path loads a custom JSON spec.
func resolveTopo() (*topo.Spec, error) {
	if topoFlag == "" {
		return nil, nil
	}
	if path, ok := strings.CutPrefix(topoFlag, "@"); ok {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topo.ParseSpec(f)
	}
	return topo.Preset(topoFlag)
}

// parseFanouts parses the -topo-fanouts list.
func parseFanouts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || f < 1 {
			return nil, fmt.Errorf("bad -topo-fanouts entry %q: want positive integers", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// showTopoCrossover runs the multi-hop crossover sweep: store fanout
// widens across a hierarchical fabric (default: the 32-GPU pod4x8
// preset) while a ring AllReduce shares it, under P2P and FinePack.
func showTopoCrossover(s *experiments.Suite) error {
	spec := resolvedTopo
	if spec == nil {
		p, err := topo.Preset(topo.PresetPod4x8)
		if err != nil {
			return err
		}
		spec = p
	}
	fanouts, err := parseFanouts(topoFanouts)
	if err != nil {
		return err
	}
	rows, err := s.TopoCrossover(spec, fanouts)
	if err != nil {
		return err
	}
	if err := writeSVG("topo-crossover", func(w io.Writer) error {
		return experiments.TopoCrossoverSVG(rows, w)
	}); err != nil {
		return err
	}
	return emit("topo-crossover", rows, experiments.TopoCrossoverTable(rows))
}

// showCollective synthesizes one collective-communication workload and
// runs it under each requested paradigm, reporting the intra/inter-node
// split when a topology is configured.
func showCollective(s *experiments.Suite) error {
	gpus := collectiveGPUs
	if gpus == 0 {
		if resolvedTopo != nil {
			gpus = resolvedTopo.NumGPUs()
		} else {
			gpus = s.NumGPUs
		}
	}
	spec := collective.Spec{
		Kind:         collectiveKind,
		GPUs:         gpus,
		PayloadBytes: collectivePayload,
		Rounds:       collectiveRounds,
	}
	pars := []sim.Paradigm{sim.P2P, sim.FinePack}
	if collectiveParadigm != "" {
		p, err := sim.ParadigmFromString(collectiveParadigm)
		if err != nil {
			return err
		}
		pars = []sim.Paradigm{p}
	}
	title := fmt.Sprintf("collective %s (%d GPUs, %d B/rank)", spec.Kind, gpus, collectivePayload)
	cols := []string{"paradigm", "time", "wire bytes", "goodput"}
	if resolvedTopo != nil {
		title += " on " + resolvedTopo.Name
		cols = append(cols, "intra-goodput", "inter-goodput", "inter-hop-bytes")
	}
	t := stats.NewTable(title, cols...)
	var results []*sim.Result
	for _, par := range pars {
		// Sources are stateful; each run gets a fresh one.
		src, err := collective.NewSource(spec)
		if err != nil {
			return err
		}
		res, err := sim.RunSourceObserved(src, par, s.Cfg, nil)
		if err != nil {
			return err
		}
		results = append(results, res)
		cells := []any{par.String(), res.Time.String(), res.WireBytes,
			fmt.Sprintf("%.3f", res.Goodput())}
		if resolvedTopo != nil {
			cells = append(cells,
				fmt.Sprintf("%.3f", res.IntraNodeGoodput()),
				fmt.Sprintf("%.3f", res.InterNodeGoodput()),
				res.InterNodeHopBytes)
		}
		t.AddRow(cells...)
	}
	return emit("collective", results, t)
}
