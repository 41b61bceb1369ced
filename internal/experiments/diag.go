package experiments

import (
	"fmt"

	"finepack/internal/sim"
	"finepack/internal/stats"
)

// DiagRow exposes the raw per-run quantities behind the figures, for
// calibration and debugging.
type DiagRow struct {
	Workload  string
	Paradigm  sim.Paradigm
	TimeUs    float64
	T1Us      float64
	Speedup   float64
	WireKB    float64
	DataKB    float64
	UsefulKB  float64
	Packets   uint64
	PerPacket float64
}

// Diag runs every (workload, paradigm) pair and returns the raw numbers.
func (s *Suite) Diag() ([]DiagRow, error) {
	s.warm(s.suiteJobs(s.NumGPUs, s.Cfg,
		sim.P2P, sim.DMA, sim.FinePack, sim.WriteCombining,
		sim.GPS, sim.UM, sim.RemoteRead, sim.Infinite))
	var rows []DiagRow
	for _, name := range s.Workloads() {
		for _, par := range []sim.Paradigm{
			sim.P2P, sim.DMA, sim.FinePack, sim.WriteCombining,
			sim.GPS, sim.UM, sim.RemoteRead, sim.Infinite,
		} {
			res, err := s.Run(name, par)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DiagRow{
				Workload:  name,
				Paradigm:  par,
				TimeUs:    res.Time.Micros(),
				T1Us:      res.SingleGPUTime.Micros(),
				Speedup:   res.Speedup(),
				WireKB:    float64(res.WireBytes) / 1024,
				DataKB:    float64(res.DataBytes) / 1024,
				UsefulKB:  float64(res.UsefulBytes) / 1024,
				Packets:   res.Packets,
				PerPacket: res.AvgStoresPerPacket,
			})
		}
	}
	return rows, nil
}

// DiagTable renders the diagnostics.
func DiagTable(rows []DiagRow) *stats.Table {
	t := stats.NewTable("diagnostics (raw per-run quantities)",
		"workload", "paradigm", "time(us)", "T1(us)", "speedup",
		"wireKB", "dataKB", "usefulKB", "pkts", "st/pkt")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Paradigm.String(),
			fmt.Sprintf("%.1f", r.TimeUs), fmt.Sprintf("%.1f", r.T1Us),
			r.Speedup,
			fmt.Sprintf("%.0f", r.WireKB), fmt.Sprintf("%.0f", r.DataKB),
			fmt.Sprintf("%.0f", r.UsefulKB), r.Packets,
			fmt.Sprintf("%.1f", r.PerPacket))
	}
	return t
}
