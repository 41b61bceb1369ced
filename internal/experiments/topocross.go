package experiments

import (
	"fmt"
	"io"

	"finepack/internal/collective"
	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/svgchart"
	"finepack/internal/topo"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

// The topology crossover (not a paper figure): the paper's fabric is one
// switch, where every transfer costs the same. On a hierarchical system
// the cost of a fine-grained store depends on where it lands — in-node
// NVLink-class hops are cheap, crossing the inter-node fabric is not —
// and the inter-node tier is also where bulk collectives live. This sweep
// widens each GPU's store fanout from nearest neighbor (all intra-node)
// to all-to-all (mostly inter-node) while a ring AllReduce continuously
// shares the fabric, and reports FinePack vs P2P goodput separately for
// intra-node and inter-node traffic.

// TopoCrossoverParadigms lists the paradigms the sweep contrasts.
func TopoCrossoverParadigms() []sim.Paradigm {
	return []sim.Paradigm{sim.P2P, sim.FinePack}
}

// DefaultTopoFanouts spans nearest-neighbor to all-to-all store patterns
// for a system of the given size.
func DefaultTopoFanouts(gpus int) []int {
	var out []int
	for _, f := range []int{1, 2, 4, 8, 16, gpus - 1} {
		if f >= gpus {
			break
		}
		if n := len(out); n > 0 && out[n-1] == f {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TopoRow is one fanout point of the crossover sweep.
type TopoRow struct {
	// Topology names the swept spec (same for every row).
	Topology string
	// Fanout is how many ring-ordered destinations each GPU stores to.
	Fanout int
	// Time is the end-to-end execution time per paradigm.
	Time map[sim.Paradigm]des.Time
	// Goodput is useful bytes over wire bytes, all traffic.
	Goodput map[sim.Paradigm]float64
	// IntraGoodput and InterGoodput split goodput by endpoint placement:
	// GPU pairs sharing a node vs pairs crossing the inter-node fabric.
	IntraGoodput map[sim.Paradigm]float64
	InterGoodput map[sim.Paradigm]float64
	// InterNodeWireBytes is the message-granularity inter-node traffic;
	// InterNodeHopBytes is what the fabric tier actually carried
	// (leaf→spine plus spine→leaf per crossing).
	InterNodeWireBytes map[sim.Paradigm]core.Bytes
	InterNodeHopBytes  map[sim.Paradigm]core.Bytes
}

// topoMixSource builds the crossover workload: a synthetic fine-grained
// store stream at the given fanout overlaid with a ring AllReduce sized
// for the same system, both scaled by the suite's Params. Sources are
// stateful, so every run gets a fresh one.
func (s *Suite) topoMixSource(gpus, fanout int) (trace.IterationSource, error) {
	scale := s.Params.Scale
	if scale <= 0 {
		scale = 1
	}
	warps := int(1024 * scale)
	if warps < 64 {
		warps = 64
	}
	iters := s.Params.Iterations
	if iters < 1 {
		iters = 1
	}
	prof := tracestream.Profile{
		Name:              fmt.Sprintf("stores-f%d", fanout),
		NumGPUs:           gpus,
		Iterations:        iters,
		Seed:              s.Params.Seed,
		ComputeOpsPerIter: 2e6 * scale,
		WarpsPerGPUIter:   warps,
		Contiguous:        0.5,
		Fanout:            fanout,
	}
	synth, err := tracestream.NewSynthSource(prof)
	if err != nil {
		return nil, err
	}
	payload := int(float64(1<<20) * scale)
	if payload < gpus*256 {
		payload = gpus * 256
	}
	coll, err := collective.NewSource(collective.Spec{
		Kind:         collective.RingAllReduce,
		GPUs:         gpus,
		PayloadBytes: payload,
	})
	if err != nil {
		return nil, err
	}
	return collective.NewMix(fmt.Sprintf("topo-mix-f%d", fanout), synth, coll)
}

// TopoCrossover sweeps store fanout across the given hierarchical
// topology (the 32-GPU pod4x8 preset when spec is nil; DefaultTopoFanouts
// when fanouts is nil) under P2P and FinePack, with a concurrent ring
// AllReduce sharing the fabric in every run.
func (s *Suite) TopoCrossover(spec *topo.Spec, fanouts []int) ([]TopoRow, error) {
	if spec == nil {
		p, err := topo.Preset(topo.PresetPod4x8)
		if err != nil {
			return nil, err
		}
		spec = p
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	gpus := spec.NumGPUs()
	if fanouts == nil {
		fanouts = DefaultTopoFanouts(gpus)
	}

	pars := TopoCrossoverParadigms()
	results := make([]*sim.Result, len(fanouts)*len(pars))
	errs := make([]error, len(results))
	s.forEach(len(results), func(i int) {
		src, err := s.topoMixSource(gpus, fanouts[i/len(pars)])
		if err == nil {
			cfg := s.Cfg
			cfg.Topology = spec
			results[i], err = sim.RunSourceObserved(src, pars[i%len(pars)], cfg, nil)
		}
		errs[i] = err
	})

	// Rows assemble serially in fanout/paradigm order from the settled
	// slots, so parallel output is byte-identical to serial.
	rows := make([]TopoRow, 0, len(fanouts))
	for fi, f := range fanouts {
		row := TopoRow{
			Topology:           spec.Name,
			Fanout:             f,
			Time:               map[sim.Paradigm]des.Time{},
			Goodput:            map[sim.Paradigm]float64{},
			IntraGoodput:       map[sim.Paradigm]float64{},
			InterGoodput:       map[sim.Paradigm]float64{},
			InterNodeWireBytes: map[sim.Paradigm]core.Bytes{},
			InterNodeHopBytes:  map[sim.Paradigm]core.Bytes{},
		}
		for pi, par := range pars {
			i := fi*len(pars) + pi
			if err := errs[i]; err != nil {
				return nil, fmt.Errorf("experiments: topo crossover fanout %d/%s: %w", f, par, err)
			}
			res := results[i]
			row.Time[par] = res.Time
			row.Goodput[par] = res.Goodput()
			row.IntraGoodput[par] = res.IntraNodeGoodput()
			row.InterGoodput[par] = res.InterNodeGoodput()
			row.InterNodeWireBytes[par] = res.InterNodeWireBytes
			row.InterNodeHopBytes[par] = res.InterNodeHopBytes
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TopoCrossoverTable renders the crossover sweep.
func TopoCrossoverTable(rows []TopoRow) *stats.Table {
	name := ""
	if len(rows) > 0 {
		name = rows[0].Topology
	}
	t := stats.NewTable(
		fmt.Sprintf("topology crossover on %s: goodput vs store fanout (concurrent ring-allreduce)", name),
		"fanout", "p2p-goodput", "fp-goodput", "p2p-intra", "fp-intra",
		"p2p-inter", "fp-inter", "p2p-inter-MiB", "fp-inter-MiB")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Fanout),
			r.Goodput[sim.P2P], r.Goodput[sim.FinePack],
			r.IntraGoodput[sim.P2P], r.IntraGoodput[sim.FinePack],
			r.InterGoodput[sim.P2P], r.InterGoodput[sim.FinePack],
			float64(r.InterNodeWireBytes[sim.P2P])/(1<<20),
			float64(r.InterNodeWireBytes[sim.FinePack])/(1<<20))
	}
	return t
}

// TopoCrossoverSVG renders the intra/inter goodput split as a line chart.
func TopoCrossoverSVG(rows []TopoRow, w io.Writer) error {
	name := ""
	if len(rows) > 0 {
		name = rows[0].Topology
	}
	l := &svgchart.Lines{
		Chart: svgchart.Chart{
			Title:  fmt.Sprintf("Topology crossover on %s: goodput vs store fanout", name),
			YLabel: "goodput (useful/wire)",
		},
		Series: []string{"p2p-intra", "finepack-intra", "p2p-inter", "finepack-inter"},
	}
	vals := make([][]float64, 4)
	for _, r := range rows {
		l.XLabels = append(l.XLabels, fmt.Sprintf("%d", r.Fanout))
		for i, par := range TopoCrossoverParadigms() {
			vals[i] = append(vals[i], r.IntraGoodput[par])
			vals[i+2] = append(vals[i+2], r.InterGoodput[par])
		}
	}
	l.Values = vals
	return l.Render(w)
}
