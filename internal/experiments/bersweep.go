package experiments

import (
	"fmt"
	"io"

	"finepack/internal/core"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/svgchart"
)

// The robustness crossover (not a paper figure): the paper evaluates
// FinePack on ideal links, but its central trade — repacketizing many
// small stores into one large transaction — inverts under errors. One
// CRC-failed 4KB FinePack packet replays every packed store, while a
// corrupted P2P write replays only ~128B. This sweep raises the per-link
// bit-error rate and watches the two paradigms' slowdown (vs their own
// error-free run) cross.

// BERSweepParadigms lists the paradigms the sweep contrasts.
func BERSweepParadigms() []sim.Paradigm {
	return []sim.Paradigm{sim.P2P, sim.FinePack}
}

// DefaultBERs spans healthy links (PCIe specs require < 1e-12 post-FEC)
// up to a badly out-of-spec 3e-5, where a 4KB packet fails CRC ~63% of
// attempts but a 128B write only ~3%.
func DefaultBERs() []float64 {
	return []float64{0, 1e-8, 1e-7, 1e-6, 3e-6, 1e-5, 3e-5}
}

// BERRow is one error-rate point of the sweep, aggregated over the
// suite's workloads.
type BERRow struct {
	BER float64
	// Slowdown is the geomean over workloads of time at this BER over
	// time on error-free links, per paradigm (1.0 at BER 0).
	Slowdown map[sim.Paradigm]float64
	// Replays and ReplayedWireBytes are summed over workloads.
	Replays           map[sim.Paradigm]uint64
	ReplayedWireBytes map[sim.Paradigm]core.Bytes
	// EffectiveWireFraction is first-transmission bytes over all bytes
	// carried (aggregated over workloads): effective vs raw bandwidth.
	EffectiveWireFraction map[sim.Paradigm]float64
	// RecoveredStalls sums watchdog recoveries (zero unless scripted
	// dead links are also configured).
	RecoveredStalls map[sim.Paradigm]uint64
}

// BERSweep runs the suite's workloads under P2P and FinePack across the
// given bit-error rates (DefaultBERs when nil), using the suite's fault
// seed (Cfg.Faults.Seed) and any scripted events already configured.
func (s *Suite) BERSweep(bers []float64) ([]BERRow, error) {
	if bers == nil {
		bers = DefaultBERs()
	}
	baseCfg := s.Cfg
	baseCfg.Faults.BER = 0
	jobs := s.suiteJobs(s.NumGPUs, baseCfg, BERSweepParadigms()...)
	for _, ber := range bers {
		cfg := s.Cfg
		cfg.Faults.BER = ber
		jobs = append(jobs, s.suiteJobs(s.NumGPUs, cfg, BERSweepParadigms()...)...)
	}
	s.warm(jobs)
	var rows []BERRow
	for _, ber := range bers {
		row := BERRow{
			BER:                   ber,
			Slowdown:              map[sim.Paradigm]float64{},
			Replays:               map[sim.Paradigm]uint64{},
			ReplayedWireBytes:     map[sim.Paradigm]core.Bytes{},
			EffectiveWireFraction: map[sim.Paradigm]float64{},
			RecoveredStalls:       map[sim.Paradigm]uint64{},
		}
		cfg := s.Cfg
		cfg.Faults.BER = ber
		for _, par := range BERSweepParadigms() {
			var slowdowns []float64
			var wire, raw core.Bytes
			for _, name := range s.Workloads() {
				ref, err := s.runWith(name, s.NumGPUs, par, baseCfg)
				if err != nil {
					return nil, err
				}
				res, err := s.runWith(name, s.NumGPUs, par, cfg)
				if err != nil {
					return nil, err
				}
				slowdowns = append(slowdowns, float64(res.Time)/float64(ref.Time))
				row.Replays[par] += res.Replays
				row.ReplayedWireBytes[par] += res.ReplayedWireBytes
				row.RecoveredStalls[par] += res.RecoveredStalls
				wire += res.WireBytes
				raw += res.RawWireBytes()
			}
			row.Slowdown[par] = stats.GeoMean(slowdowns)
			if raw > 0 {
				row.EffectiveWireFraction[par] = float64(wire) / float64(raw)
			} else {
				row.EffectiveWireFraction[par] = 1
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BERSweepTable renders the robustness crossover.
func BERSweepTable(rows []BERRow) *stats.Table {
	t := stats.NewTable("robustness: slowdown vs link bit-error rate (geomean over workloads)",
		"ber", "p2p-slowdown", "finepack-slowdown", "p2p-wire-eff", "finepack-wire-eff",
		"p2p-replays", "finepack-replays")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0e", r.BER),
			r.Slowdown[sim.P2P], r.Slowdown[sim.FinePack],
			r.EffectiveWireFraction[sim.P2P], r.EffectiveWireFraction[sim.FinePack],
			float64(r.Replays[sim.P2P]), float64(r.Replays[sim.FinePack]))
	}
	return t
}

// BERSweepSVG renders the crossover as a line chart.
func BERSweepSVG(rows []BERRow, w io.Writer) error {
	l := &svgchart.Lines{
		Chart: svgchart.Chart{
			Title:  "Robustness: slowdown vs link bit-error rate",
			YLabel: "slowdown vs error-free links (x)",
		},
		Series: []string{"p2p", "finepack"},
	}
	vals := make([][]float64, 2)
	for _, r := range rows {
		l.XLabels = append(l.XLabels, fmt.Sprintf("%.0e", r.BER))
		for i, par := range BERSweepParadigms() {
			vals[i] = append(vals[i], r.Slowdown[par])
		}
	}
	l.Values = vals
	return l.Render(w)
}
