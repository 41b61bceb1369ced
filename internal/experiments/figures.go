package experiments

import (
	"fmt"

	"finepack/internal/nvlink"
	"finepack/internal/pcie"
	"finepack/internal/sim"
	"finepack/internal/stats"
)

// ---------------------------------------------------------------- Fig 2

// Fig2Point is one x-position of Fig 2: interconnect goodput at a given
// peer-to-peer store transfer size.
type Fig2Point struct {
	SizeBytes        int
	PCIeGoodput      float64
	NVLinkAligned    float64
	NVLinkMisaligned float64
}

// Fig2 regenerates the goodput-vs-size curves for PCIe and NVLink
// (measured to 128B in the paper, projected beyond; here analytic
// throughout).
func Fig2() []Fig2Point {
	tlp := pcie.DefaultTLPConfig()
	var out []Fig2Point
	for _, size := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		p := Fig2Point{SizeBytes: size, PCIeGoodput: tlp.Goodput(size)}
		if size <= nvlink.MaxPayload {
			p.NVLinkAligned = nvlink.GoodputAligned(size)
			p.NVLinkMisaligned = nvlink.GoodputMisaligned(size)
		} else {
			// P2P stores never exceed 128B on NVLink (Fig 2 caption);
			// project with back-to-back max-payload packets.
			full := nvlink.Write{Addr: 0, Size: nvlink.MaxPayload}
			n := size / nvlink.MaxPayload
			p.NVLinkAligned = float64(size) / float64(n*full.WireBytes())
			p.NVLinkMisaligned = p.NVLinkAligned
		}
		out = append(out, p)
	}
	return out
}

// Fig2Table renders Fig 2.
func Fig2Table(points []Fig2Point) *stats.Table {
	t := stats.NewTable("Fig 2: goodput vs transfer size",
		"size", "pcie", "nvlink(aligned)", "nvlink(misaligned)")
	for _, p := range points {
		t.AddRow(stats.HumanBytes(uint64(p.SizeBytes)),
			fmt.Sprintf("%.3f", p.PCIeGoodput),
			fmt.Sprintf("%.3f", p.NVLinkAligned),
			fmt.Sprintf("%.3f", p.NVLinkMisaligned))
	}
	return t
}

// ---------------------------------------------------------------- Fig 4

// Fig4Row is one workload's remote-store size distribution out of L1.
type Fig4Row struct {
	Workload  string
	Labels    []string
	Fractions []float64
	MeanSize  float64
	Sub32     float64
}

// Fig4 regenerates the store-size mix egressing L1 per workload.
func (s *Suite) Fig4() ([]Fig4Row, error) {
	names := s.Workloads()
	s.forEach(len(names), func(i int) { _, _ = s.Trace(names[i], s.NumGPUs) })
	var rows []Fig4Row
	for _, name := range names {
		tr, err := s.Trace(name, s.NumGPUs)
		if err != nil {
			return nil, err
		}
		h, err := tr.StoreSizeHistogram()
		if err != nil {
			return nil, err
		}
		labels, fracs := h.Buckets()
		rows = append(rows, Fig4Row{
			Workload:  name,
			Labels:    labels,
			Fractions: fracs,
			MeanSize:  h.MeanSize(),
			Sub32:     h.FractionAtMost(32),
		})
	}
	return rows, nil
}

// Fig4Table renders Fig 4.
func Fig4Table(rows []Fig4Row) *stats.Table {
	headers := append([]string{"workload"}, rows[0].Labels...)
	headers = append(headers, "mean", "<=32B")
	t := stats.NewTable("Fig 4: remote store sizes egressing L1", headers...)
	for _, r := range rows {
		cells := []any{r.Workload}
		for _, f := range r.Fractions {
			cells = append(cells, fmt.Sprintf("%.0f%%", f*100))
		}
		cells = append(cells, fmt.Sprintf("%.0fB", r.MeanSize),
			fmt.Sprintf("%.0f%%", r.Sub32*100))
		t.AddRow(cells...)
	}
	return t
}

// ---------------------------------------------------------------- Fig 9

// Fig9Row is one workload's 4-GPU speedup bars.
type Fig9Row struct {
	Workload string
	Speedup  map[sim.Paradigm]float64
}

// Fig9 regenerates the headline strong-scaling comparison.
func (s *Suite) Fig9() ([]Fig9Row, map[sim.Paradigm]float64, error) {
	s.warm(s.suiteJobs(s.NumGPUs, s.Cfg, sim.Fig9Paradigms()...))
	var rows []Fig9Row
	sums := map[sim.Paradigm][]float64{}
	for _, name := range s.Workloads() {
		row := Fig9Row{Workload: name, Speedup: map[sim.Paradigm]float64{}}
		for _, par := range sim.Fig9Paradigms() {
			res, err := s.Run(name, par)
			if err != nil {
				return nil, nil, err
			}
			row.Speedup[par] = res.Speedup()
			sums[par] = append(sums[par], res.Speedup())
		}
		rows = append(rows, row)
	}
	geo := map[sim.Paradigm]float64{}
	for par, xs := range sums {
		geo[par] = stats.GeoMean(xs)
	}
	return rows, geo, nil
}

// Fig9Table renders Fig 9.
func Fig9Table(rows []Fig9Row, geo map[sim.Paradigm]float64) *stats.Table {
	t := stats.NewTable("Fig 9: 4-GPU speedup over 1 GPU",
		"workload", "p2p", "dma", "finepack", "infinite-bw")
	for _, r := range rows {
		t.AddRow(r.Workload,
			r.Speedup[sim.P2P], r.Speedup[sim.DMA],
			r.Speedup[sim.FinePack], r.Speedup[sim.Infinite])
	}
	t.AddRow("geomean",
		geo[sim.P2P], geo[sim.DMA], geo[sim.FinePack], geo[sim.Infinite])
	return t
}

// --------------------------------------------------------------- Fig 10

// Fig10Row is one workload's wire-byte breakdown per paradigm, normalized
// to the bulk-DMA total.
type Fig10Row struct {
	Workload string
	// Useful, Protocol and Wasted are indexed by paradigm and expressed
	// as fractions of DMA's total wire bytes.
	Useful, Protocol, Wasted map[sim.Paradigm]float64
}

// Fig10Paradigms is the figure's paradigm order.
func Fig10Paradigms() []sim.Paradigm {
	return []sim.Paradigm{sim.DMA, sim.P2P, sim.FinePack}
}

// Fig10 regenerates the traffic breakdown.
func (s *Suite) Fig10() ([]Fig10Row, error) {
	s.warm(s.suiteJobs(s.NumGPUs, s.Cfg, Fig10Paradigms()...))
	var rows []Fig10Row
	for _, name := range s.Workloads() {
		dma, err := s.Run(name, sim.DMA)
		if err != nil {
			return nil, err
		}
		norm := float64(dma.WireBytes)
		if norm == 0 {
			return nil, fmt.Errorf("experiments: %s: DMA sent nothing", name)
		}
		row := Fig10Row{
			Workload: name,
			Useful:   map[sim.Paradigm]float64{},
			Protocol: map[sim.Paradigm]float64{},
			Wasted:   map[sim.Paradigm]float64{},
		}
		for _, par := range Fig10Paradigms() {
			res, err := s.Run(name, par)
			if err != nil {
				return nil, err
			}
			row.Useful[par] = float64(res.UsefulBytes) / norm
			row.Protocol[par] = float64(res.ProtocolBytes()) / norm
			row.Wasted[par] = float64(res.WastedBytes()) / norm
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Table renders Fig 10.
func Fig10Table(rows []Fig10Row) *stats.Table {
	t := stats.NewTable("Fig 10: bytes on wire (normalized to DMA total)",
		"workload", "paradigm", "useful", "protocol", "wasted", "total")
	for _, r := range rows {
		for _, par := range Fig10Paradigms() {
			total := r.Useful[par] + r.Protocol[par] + r.Wasted[par]
			t.AddRow(r.Workload, par.String(),
				r.Useful[par], r.Protocol[par], r.Wasted[par], total)
		}
	}
	return t
}

// --------------------------------------------------------------- Fig 11

// Fig11Row is one workload's average FinePack packing factor.
type Fig11Row struct {
	Workload        string
	StoresPerPacket float64
}

// Fig11 regenerates the stores-aggregated-per-packet chart.
func (s *Suite) Fig11() ([]Fig11Row, float64, error) {
	s.warm(s.suiteJobs(s.NumGPUs, s.Cfg, sim.FinePack))
	var rows []Fig11Row
	var xs []float64
	for _, name := range s.Workloads() {
		res, err := s.Run(name, sim.FinePack)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, Fig11Row{name, res.AvgStoresPerPacket})
		xs = append(xs, res.AvgStoresPerPacket)
	}
	return rows, stats.Mean(xs), nil
}

// Fig11Table renders Fig 11.
func Fig11Table(rows []Fig11Row, mean float64) *stats.Table {
	t := stats.NewTable("Fig 11: stores aggregated per FinePack packet",
		"workload", "stores/packet")
	for _, r := range rows {
		t.AddRow(r.Workload, fmt.Sprintf("%.1f", r.StoresPerPacket))
	}
	t.AddRow("mean", fmt.Sprintf("%.1f", mean))
	return t
}

// --------------------------------------------------------------- Fig 12

// Fig12Row is one workload's FinePack speedup across sub-header sizes.
type Fig12Row struct {
	Workload string
	// SpeedupByBytes maps sub-header bytes (2–6) to 4-GPU speedup.
	SpeedupByBytes map[int]float64
}

// Fig12 regenerates the sub-header sensitivity sweep.
func (s *Suite) Fig12() ([]Fig12Row, map[int]float64, error) {
	var jobs []runJob
	for shb := 2; shb <= 6; shb++ {
		cfg := s.Cfg
		cfg.FinePack.SubheaderBytes = shb
		jobs = append(jobs, s.suiteJobs(s.NumGPUs, cfg, sim.FinePack)...)
	}
	s.warm(jobs)
	var rows []Fig12Row
	perSize := map[int][]float64{}
	for _, name := range s.Workloads() {
		row := Fig12Row{Workload: name, SpeedupByBytes: map[int]float64{}}
		for shb := 2; shb <= 6; shb++ {
			cfg := s.Cfg
			cfg.FinePack.SubheaderBytes = shb
			res, err := s.runWith(name, s.NumGPUs, sim.FinePack, cfg)
			if err != nil {
				return nil, nil, err
			}
			row.SpeedupByBytes[shb] = res.Speedup()
			perSize[shb] = append(perSize[shb], res.Speedup())
		}
		rows = append(rows, row)
	}
	geo := map[int]float64{}
	for shb, xs := range perSize {
		geo[shb] = stats.GeoMean(xs)
	}
	return rows, geo, nil
}

// Fig12Table renders Fig 12.
func Fig12Table(rows []Fig12Row, geo map[int]float64) *stats.Table {
	t := stats.NewTable("Fig 12: sensitivity to sub-header bytes",
		"workload", "2B", "3B", "4B", "5B", "6B")
	for _, r := range rows {
		t.AddRow(r.Workload,
			r.SpeedupByBytes[2], r.SpeedupByBytes[3], r.SpeedupByBytes[4],
			r.SpeedupByBytes[5], r.SpeedupByBytes[6])
	}
	t.AddRow("geomean", geo[2], geo[3], geo[4], geo[5], geo[6])
	return t
}

// --------------------------------------------------------------- Fig 13

// Fig13Row is one interconnect generation's geomean speedups.
type Fig13Row struct {
	Label   string
	Speedup map[sim.Paradigm]float64
}

// Fig13 regenerates the bandwidth sensitivity study: geomean speedup of
// P2P, DMA and FinePack per PCIe generation, plus the infinite bound.
func (s *Suite) Fig13() ([]Fig13Row, error) {
	var jobs []runJob
	for _, gen := range []pcie.Generation{pcie.Gen4, pcie.Gen5, pcie.Gen6} {
		jobs = append(jobs, s.suiteJobs(s.NumGPUs, s.withGen(gen), sim.P2P, sim.DMA, sim.FinePack)...)
	}
	jobs = append(jobs, s.suiteJobs(s.NumGPUs, s.Cfg, sim.Infinite)...)
	s.warm(jobs)
	var rows []Fig13Row
	for _, gen := range []pcie.Generation{pcie.Gen4, pcie.Gen5, pcie.Gen6} {
		cfg := s.withGen(gen)
		row := Fig13Row{Label: gen.String(), Speedup: map[sim.Paradigm]float64{}}
		for _, par := range []sim.Paradigm{sim.P2P, sim.DMA, sim.FinePack} {
			var xs []float64
			for _, name := range s.Workloads() {
				res, err := s.runWith(name, s.NumGPUs, par, cfg)
				if err != nil {
					return nil, err
				}
				xs = append(xs, res.Speedup())
			}
			row.Speedup[par] = stats.GeoMean(xs)
		}
		rows = append(rows, row)
	}
	// Infinite bandwidth bound.
	var xs []float64
	for _, name := range s.Workloads() {
		res, err := s.Run(name, sim.Infinite)
		if err != nil {
			return nil, err
		}
		xs = append(xs, res.Speedup())
	}
	rows = append(rows, Fig13Row{
		Label:   "infinite",
		Speedup: map[sim.Paradigm]float64{sim.P2P: stats.GeoMean(xs), sim.DMA: stats.GeoMean(xs), sim.FinePack: stats.GeoMean(xs)},
	})
	return rows, nil
}

// Fig13Table renders Fig 13.
func Fig13Table(rows []Fig13Row) *stats.Table {
	t := stats.NewTable("Fig 13: geomean speedup vs interconnect bandwidth",
		"link", "p2p", "dma", "finepack")
	for _, r := range rows {
		t.AddRow(r.Label,
			r.Speedup[sim.P2P], r.Speedup[sim.DMA], r.Speedup[sim.FinePack])
	}
	return t
}
