package experiments

import (
	"fmt"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/sim"
	"finepack/internal/stats"
)

// The ablation studies evaluate design choices the paper fixes, defers, or
// calls out as future work: remote-write-queue capacity (§VI-B "the impact
// of reducing the maximum coalescing size is left for future work"),
// multiple open outer transactions per destination (§IV-C), and the
// inactivity-timeout flush (§IV-B).

// AblationRow is one design point of an ablation sweep.
type AblationRow struct {
	// Label names the design point (e.g. "64 entries").
	Label string
	// Geomean is the suite geomean FinePack speedup at this point.
	Geomean float64
	// StoresPerPacket is the suite-mean packing factor.
	StoresPerPacket float64
	// WireBytes is the suite-total FinePack traffic.
	WireBytes core.Bytes
	// TimeoutFlushes counts CauseTimeout flushes (timeout sweep only).
	TimeoutFlushes uint64
	// WindowMissFlushes counts CauseWindowMiss flushes.
	WindowMissFlushes uint64
}

// sweepFinePack runs the whole suite under a modified config and reduces
// it to one AblationRow.
func (s *Suite) sweepFinePack(label string, cfg sim.Config) (AblationRow, error) {
	row := AblationRow{Label: label}
	var speedups, packing []float64
	for _, name := range s.Workloads() {
		res, err := s.runWith(name, s.NumGPUs, sim.FinePack, cfg)
		if err != nil {
			return row, err
		}
		speedups = append(speedups, res.Speedup())
		packing = append(packing, res.AvgStoresPerPacket)
		row.WireBytes += res.WireBytes
		row.TimeoutFlushes += res.Flushes[core.CauseTimeout]
		row.WindowMissFlushes += res.Flushes[core.CauseWindowMiss]
	}
	row.Geomean = stats.GeoMean(speedups)
	row.StoresPerPacket = stats.Mean(packing)
	return row, nil
}

// AblationQueueEntries sweeps the per-partition entry budget: the §VI-B
// future-work question of how far the SRAM can shrink (e.g. at high GPU
// counts) before coalescing quality collapses.
func (s *Suite) AblationQueueEntries() ([]AblationRow, error) {
	var jobs []runJob
	for _, entries := range []int{4, 8, 16, 32, 64, 128} {
		cfg := s.Cfg
		cfg.FinePack.QueueEntries = entries
		jobs = append(jobs, s.suiteJobs(s.NumGPUs, cfg, sim.FinePack)...)
	}
	s.warm(jobs)
	var rows []AblationRow
	for _, entries := range []int{4, 8, 16, 32, 64, 128} {
		cfg := s.Cfg
		cfg.FinePack.QueueEntries = entries
		row, err := s.sweepFinePack(fmt.Sprintf("%d entries", entries), cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationOpenWindows sweeps the open-outer-transaction count per
// destination (§IV-C's anti-thrashing alternative; the paper evaluates 1).
func (s *Suite) AblationOpenWindows() ([]AblationRow, error) {
	var jobs []runJob
	for _, wins := range []int{1, 2, 4} {
		cfg := s.Cfg
		cfg.FinePack.MaxOpenWindows = wins
		jobs = append(jobs, s.suiteJobs(s.NumGPUs, cfg, sim.FinePack)...)
	}
	s.warm(jobs)
	var rows []AblationRow
	for _, wins := range []int{1, 2, 4} {
		cfg := s.Cfg
		cfg.FinePack.MaxOpenWindows = wins
		row, err := s.sweepFinePack(fmt.Sprintf("%d windows", wins), cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationFlushTimeout sweeps the inactivity-timeout flush (§IV-B): short
// timeouts cut the coalescing window; off (the paper's choice) maximizes
// packing.
func (s *Suite) AblationFlushTimeout() ([]AblationRow, error) {
	// Timeouts are in the scaled-down time units of the suite (fixed
	// latencies scale with the reduced problem sizes): kernels emit a
	// store batch every few tens of ns, so sub-50ns timeouts cut into
	// live coalescing windows while larger ones only fire in the idle
	// tail the release flush covers anyway — the paper's rationale for
	// leaving the mechanism off.
	points := []struct {
		label   string
		timeout core.PicoSeconds
	}{
		{"off", 0},
		{"10ns", core.PicoSeconds(10 * des.Nanosecond)},
		{"25ns", core.PicoSeconds(25 * des.Nanosecond)},
		{"50ns", core.PicoSeconds(50 * des.Nanosecond)},
		{"500ns", core.PicoSeconds(500 * des.Nanosecond)},
	}
	var jobs []runJob
	for _, p := range points {
		cfg := s.Cfg
		cfg.FlushTimeout = p.timeout
		jobs = append(jobs, s.suiteJobs(s.NumGPUs, cfg, sim.FinePack)...)
	}
	s.warm(jobs)
	var rows []AblationRow
	for _, p := range points {
		cfg := s.Cfg
		cfg.FlushTimeout = p.timeout
		row, err := s.sweepFinePack(p.label, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationTable renders any ablation sweep.
func AblationTable(title string, rows []AblationRow) *stats.Table {
	t := stats.NewTable(title,
		"design point", "geomean speedup", "stores/packet", "wire MB",
		"timeout flushes", "window misses")
	for _, r := range rows {
		t.AddRow(r.Label,
			fmt.Sprintf("%.2f", r.Geomean),
			fmt.Sprintf("%.1f", r.StoresPerPacket),
			fmt.Sprintf("%.1f", float64(r.WireBytes)/(1<<20)),
			r.TimeoutFlushes, r.WindowMissFlushes)
	}
	return t
}
