package experiments

import (
	"fmt"

	"finepack/internal/sim"
	"finepack/internal/stats"
)

// OverlapRow decomposes one run's execution time: critical-path compute,
// exposed (unoverlapped) communication, and synchronization. The store
// paradigms' advantage — and the reason the paper pushes P2P stores — is
// keeping exposed communication near zero; bulk DMA serializes it.
type OverlapRow struct {
	Workload       string
	Paradigm       sim.Paradigm
	ComputeUs      float64
	ExposedCommUs  float64
	BarrierUs      float64
	ExposedPercent float64
}

// Overlap computes the time decomposition for the P2P/DMA/FinePack trio.
func (s *Suite) Overlap() ([]OverlapRow, error) {
	s.warm(s.suiteJobs(s.NumGPUs, s.Cfg, sim.P2P, sim.DMA, sim.FinePack))
	var rows []OverlapRow
	for _, name := range s.Workloads() {
		for _, par := range []sim.Paradigm{sim.P2P, sim.DMA, sim.FinePack} {
			res, err := s.Run(name, par)
			if err != nil {
				return nil, err
			}
			rows = append(rows, OverlapRow{
				Workload:       name,
				Paradigm:       par,
				ComputeUs:      res.ComputeTime.Micros(),
				ExposedCommUs:  res.ExposedCommTime().Micros(),
				BarrierUs:      res.BarrierTime.Micros(),
				ExposedPercent: res.ExposedCommFraction() * 100,
			})
		}
	}
	return rows, nil
}

// OverlapTable renders the decomposition.
func OverlapTable(rows []OverlapRow) *stats.Table {
	t := stats.NewTable("compute/communication overlap (time decomposition)",
		"workload", "paradigm", "compute us", "exposed comm us", "barrier us", "exposed")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Paradigm.String(),
			fmt.Sprintf("%.1f", r.ComputeUs),
			fmt.Sprintf("%.1f", r.ExposedCommUs),
			fmt.Sprintf("%.1f", r.BarrierUs),
			fmt.Sprintf("%.0f%%", r.ExposedPercent))
	}
	return t
}

// UMRow compares the §II-A locality-management baselines — Unified-Memory
// page migration and on-demand remote reads (no replication) — against
// bulk DMA and FinePack.
type UMRow struct {
	Workload        string
	UMSpeedup       float64
	RemoteRdSpeedup float64
	DMASpeedup      float64
	FPSpeedup       float64
	PagesMigrated   uint64
	// InflationX is UM's transferred bytes over the actually-useful
	// bytes: the page-granularity over-fetch.
	InflationX float64
}

// UMCompare regenerates the §II-A comparison: page migration and remote
// reads are both too inefficient for fine-grained sharing, which is why
// replication + proactive stores exist at all.
func (s *Suite) UMCompare() ([]UMRow, error) {
	s.warm(s.suiteJobs(s.NumGPUs, s.Cfg, sim.UM, sim.RemoteRead, sim.DMA, sim.FinePack))
	var rows []UMRow
	for _, name := range s.Workloads() {
		um, err := s.Run(name, sim.UM)
		if err != nil {
			return nil, err
		}
		rr, err := s.Run(name, sim.RemoteRead)
		if err != nil {
			return nil, err
		}
		dma, err := s.Run(name, sim.DMA)
		if err != nil {
			return nil, err
		}
		fp, err := s.Run(name, sim.FinePack)
		if err != nil {
			return nil, err
		}
		inflation := 0.0
		if um.UsefulBytes > 0 {
			inflation = float64(um.DataBytes) / float64(um.UsefulBytes)
		}
		rows = append(rows, UMRow{
			Workload:        name,
			UMSpeedup:       um.Speedup(),
			RemoteRdSpeedup: rr.Speedup(),
			DMASpeedup:      dma.Speedup(),
			FPSpeedup:       fp.Speedup(),
			PagesMigrated:   um.UMPagesMigrated,
			InflationX:      inflation,
		})
	}
	return rows, nil
}

// UMTable renders the comparison.
func UMTable(rows []UMRow) *stats.Table {
	t := stats.NewTable("§II-A: UM page migration / remote reads vs DMA vs FinePack (4-GPU speedup)",
		"workload", "um", "remote-read", "dma", "finepack", "pages", "byte inflation")
	for _, r := range rows {
		t.AddRow(r.Workload, r.UMSpeedup, r.RemoteRdSpeedup, r.DMASpeedup, r.FPSpeedup,
			r.PagesMigrated, fmt.Sprintf("%.1fx", r.InflationX))
	}
	return t
}
