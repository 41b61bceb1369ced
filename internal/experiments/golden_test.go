package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"finepack/internal/sim"
	"finepack/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden results file")

// goldenMetrics pins the exact outputs of a fixed configuration. The
// simulator is deterministic by construction, so any drift here is a
// model change: intentional ones regenerate the file with
// `go test ./internal/experiments -run TestGolden -update`.
type goldenMetrics struct {
	Workload        string  `json:"workload"`
	Paradigm        string  `json:"paradigm"`
	TimePs          uint64  `json:"time_ps"`
	WireBytes       uint64  `json:"wire_bytes"`
	UsefulBytes     uint64  `json:"useful_bytes"`
	Packets         uint64  `json:"packets"`
	StoresPerPacket float64 `json:"stores_per_packet"`
}

func goldenPath() string {
	return filepath.Join("testdata", "golden.json")
}

func TestGoldenRegression(t *testing.T) {
	s := New(sim.DefaultConfig(),
		workloads.Params{Scale: 0.2, Iterations: 2, Seed: 12345}, 4)

	var got []goldenMetrics
	for _, name := range []string{"jacobi", "sssp", "ct", "hit"} {
		for _, par := range []sim.Paradigm{sim.P2P, sim.DMA, sim.FinePack} {
			res, err := s.Run(name, par)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, goldenMetrics{
				Workload:        name,
				Paradigm:        par.String(),
				TimePs:          uint64(res.Time),
				WireBytes:       uint64(res.WireBytes),
				UsefulBytes:     uint64(res.UsefulBytes),
				Packets:         res.Packets,
				StoresPerPacket: res.AvgStoresPerPacket,
			})
		}
	}

	checkGolden(t, goldenPath(), got, func(m goldenMetrics) string {
		return m.Workload + "/" + m.Paradigm
	})
}

// checkGolden compares got with the JSON golden file at path, entry by
// entry, or rewrites the file when -update is set. label names an entry
// in drift reports.
func checkGolden[T comparable](t *testing.T, path string, got []T, label func(T) string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten with %d entries", len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, run produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("drift at %s:\n got %+v\nwant %+v", label(got[i]), got[i], want[i])
		}
	}
}
