package experiments

import (
	"path/filepath"
	"testing"

	"finepack/internal/faults"
	"finepack/internal/sim"
	"finepack/internal/workloads"
)

// pathMetrics pins one run of a fabric configuration the 4-GPU goldens
// do not reach: trunk hops between leaf switches, the fault-injected
// path, and the multi-hop store-and-forward path.
type pathMetrics struct {
	Fabric            string `json:"fabric"`
	Workload          string `json:"workload"`
	Paradigm          string `json:"paradigm"`
	TimePs            uint64 `json:"time_ps"`
	WireBytes         uint64 `json:"wire_bytes"`
	Packets           uint64 `json:"packets"`
	Replays           uint64 `json:"replays"`
	ReplayedWireBytes uint64 `json:"replayed_wire_bytes"`
	RecoveredStalls   uint64 `json:"recovered_stalls"`
	InterNodeHopBytes uint64 `json:"inter_node_hop_bytes"`
}

// TestGoldenPaths pins every transfer path of the fabric with exact run
// outputs: a 16-GPU flat fabric (cross-switch traffic rides the shared
// trunks), the 4-GPU flat fabric under injected bit errors (Ack/Nak
// replay), and the ideal multi-hop dgx2x4 hierarchy. Intentional model
// changes regenerate the file with
// `go test ./internal/experiments -run TestGoldenPaths -update`.
func TestGoldenPaths(t *testing.T) {
	params := workloads.Params{Scale: 0.2, Iterations: 2, Seed: 12345}
	all := []sim.Paradigm{sim.P2P, sim.DMA, sim.FinePack}
	faulty := sim.DefaultConfig()
	faulty.Faults = faults.Config{BER: 1e-5, Seed: 3}
	hier := sim.DefaultConfig()
	hier.Topology = crossoverSpec(t)
	fabrics := []struct {
		name  string
		suite *Suite
		pars  []sim.Paradigm
	}{
		{"flat16", New(sim.DefaultConfig(), params, 16), all},
		{"flat4-ber", New(faulty, params, 4), all},
		{"dgx2x4", New(hier, params, 8), []sim.Paradigm{sim.P2P, sim.FinePack}},
	}

	var got []pathMetrics
	for _, f := range fabrics {
		for _, name := range []string{"sssp", "jacobi"} {
			for _, par := range f.pars {
				res, err := f.suite.Run(name, par)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, pathMetrics{
					Fabric:            f.name,
					Workload:          name,
					Paradigm:          par.String(),
					TimePs:            uint64(res.Time),
					WireBytes:         uint64(res.WireBytes),
					Packets:           res.Packets,
					Replays:           res.Replays,
					ReplayedWireBytes: uint64(res.ReplayedWireBytes),
					RecoveredStalls:   res.RecoveredStalls,
					InterNodeHopBytes: uint64(res.InterNodeHopBytes),
				})
			}
		}
	}

	checkGolden(t, filepath.Join("testdata", "golden_paths.json"), got, func(m pathMetrics) string {
		return m.Fabric + " " + m.Workload + "/" + m.Paradigm
	})
}
