package experiments

import (
	"fmt"

	"finepack/internal/sim"
	"finepack/internal/stats"
)

// ScalingRow is one system size of the strong-scaling curve.
type ScalingRow struct {
	GPUs    int
	Speedup map[sim.Paradigm]float64
}

// Scaling extends Fig 9 into a strong-scaling curve: geomean speedup over
// one GPU at 2, 4, 8 and 16 GPUs on the configured link. Strong scaling is
// the paper's whole subject — per-GPU compute shrinks with system size
// while the paradigms' interconnect efficiency decides how much of it
// survives.
func (s *Suite) Scaling() ([]ScalingRow, error) {
	var jobs []runJob
	for _, gpus := range []int{2, 4, 8, 16} {
		jobs = append(jobs, s.suiteJobs(gpus, s.Cfg, sim.Fig9Paradigms()...)...)
	}
	s.warm(jobs)
	var rows []ScalingRow
	for _, gpus := range []int{2, 4, 8, 16} {
		row := ScalingRow{GPUs: gpus, Speedup: map[sim.Paradigm]float64{}}
		for _, par := range sim.Fig9Paradigms() {
			var xs []float64
			for _, name := range s.Workloads() {
				res, err := s.runWith(name, gpus, par, s.Cfg)
				if err != nil {
					return nil, err
				}
				xs = append(xs, res.Speedup())
			}
			row.Speedup[par] = stats.GeoMean(xs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScalingTable renders the curve.
func ScalingTable(rows []ScalingRow) *stats.Table {
	t := stats.NewTable("strong scaling: geomean speedup vs GPU count",
		"gpus", "p2p", "dma", "finepack", "infinite-bw")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.GPUs),
			r.Speedup[sim.P2P], r.Speedup[sim.DMA],
			r.Speedup[sim.FinePack], r.Speedup[sim.Infinite])
	}
	return t
}
