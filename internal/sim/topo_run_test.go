package sim

import (
	"fmt"
	"testing"

	"finepack/internal/collective"
	"finepack/internal/core"
	"finepack/internal/topo"
	"finepack/internal/workloads"
)

// twinSpec is a tiny hierarchical topology for sim-level tests: 2 nodes of
// 2 GPUs each, so every ring collective on it must cross the spine.
func twinSpec() *topo.Spec {
	return topo.Hierarchical("twin2x2", 2, 2,
		topo.LinkClass{Bandwidth: 64e9, Latency: core.PicoSeconds(200_000)},
		topo.LinkClass{Bandwidth: 16e9, Latency: core.PicoSeconds(1_000_000)},
	)
}

func ringSource(t *testing.T, gpus int) *collective.Source {
	t.Helper()
	src, err := collective.NewSource(collective.Spec{
		Kind:         collective.RingAllReduce,
		GPUs:         gpus,
		PayloadBytes: 64 << 10,
		Rounds:       2,
	})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	return src
}

// TestRunSourceWithTopology drives a ring AllReduce over the twin
// hierarchy and checks the topology-specific result fields: the name is
// recorded, wire and useful bytes split cleanly into intra/inter-node
// components, and the hop counter sees the spine traffic.
func TestRunSourceWithTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = twinSpec()
	res, err := RunSourceObserved(ringSource(t, 4), FinePack, cfg, nil)
	if err != nil {
		t.Fatalf("RunSourceObserved: %v", err)
	}
	if res.Topology != "twin2x2" {
		t.Fatalf("Topology = %q, want twin2x2", res.Topology)
	}
	if res.IntraNodeWireBytes == 0 || res.InterNodeWireBytes == 0 {
		t.Fatalf("wire split intra=%d inter=%d, want both nonzero (ring crosses nodes)",
			res.IntraNodeWireBytes, res.InterNodeWireBytes)
	}
	if got := res.IntraNodeWireBytes + res.InterNodeWireBytes; got != res.WireBytes {
		t.Fatalf("wire split %d+%d != total %d",
			res.IntraNodeWireBytes, res.InterNodeWireBytes, res.WireBytes)
	}
	if got := res.IntraNodeUsefulBytes + res.InterNodeUsefulBytes; got != res.UsefulBytes {
		t.Fatalf("useful split %d+%d != total %d",
			res.IntraNodeUsefulBytes, res.InterNodeUsefulBytes, res.UsefulBytes)
	}
	// Each inter-node message traverses leaf→spine and spine→leaf, i.e.
	// two inter-node edges, so hop bytes must exceed the message-level
	// inter-node wire bytes.
	if res.InterNodeHopBytes <= res.InterNodeWireBytes {
		t.Fatalf("InterNodeHopBytes %d not above InterNodeWireBytes %d (two spine hops per message)",
			res.InterNodeHopBytes, res.InterNodeWireBytes)
	}
	if res.IntraNodeGoodput() <= 0 || res.InterNodeGoodput() <= 0 {
		t.Fatalf("goodput split intra=%v inter=%v, want both positive",
			res.IntraNodeGoodput(), res.InterNodeGoodput())
	}
	if res.Time <= 0 {
		t.Fatalf("Time = %v, want positive", res.Time)
	}
}

// TestFlatRunKeepsTopologyFieldsZero pins the compatibility contract: a
// run without Config.Topology leaves every topology result field at its
// zero value, so existing consumers (and goldens) see no change.
func TestFlatRunKeepsTopologyFieldsZero(t *testing.T) {
	w := workloads.NewJacobi()
	tr, err := w.Generate(4, workloads.Params{Scale: 1, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res, err := Run(tr, FinePack, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Topology != "" {
		t.Fatalf("Topology = %q, want empty on flat fabric", res.Topology)
	}
	if res.IntraNodeWireBytes != 0 || res.InterNodeWireBytes != 0 ||
		res.IntraNodeUsefulBytes != 0 || res.InterNodeUsefulBytes != 0 ||
		res.InterNodeHopBytes != 0 {
		t.Fatalf("flat run populated topology splits: %+v", res)
	}
}

// TestInfiniteParadigmDropsTopology checks that the opportunity-bound
// paradigm, which elides all transfer costs, ignores the topology rather
// than paying multi-hop latency that contradicts its definition.
func TestInfiniteParadigmDropsTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = twinSpec()
	res, err := RunSourceObserved(ringSource(t, 4), Infinite, cfg, nil)
	if err != nil {
		t.Fatalf("RunSourceObserved: %v", err)
	}
	if res.Topology != "" {
		t.Fatalf("Infinite run recorded topology %q, want none", res.Topology)
	}
	if res.InterNodeHopBytes != 0 {
		t.Fatalf("Infinite run counted %d hop bytes, want 0", res.InterNodeHopBytes)
	}
}

// TestTopologyGPUMismatch checks the run-time guard: a trace sized for a
// different system than the topology is an error, not a silent remap.
func TestTopologyGPUMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = twinSpec() // 4 GPUs
	if _, err := RunSourceObserved(ringSource(t, 8), FinePack, cfg, nil); err == nil {
		t.Fatal("expected GPU-count mismatch error, got nil")
	}
}

// TestTopologyDeterminism pins bit-identical results across repeated
// multi-hop runs — the property the whole DES rests on, re-checked here
// because topology routing adds per-hop events to the schedule.
func TestTopologyDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.Topology = twinSpec()
		res, err := RunSourceObserved(ringSource(t, 4), FinePack, cfg, nil)
		if err != nil {
			t.Fatalf("RunSourceObserved: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("repeated topology runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestTopologyParadigmsCompared drives the same multi-hop collective
// through FinePack and P2P and checks the paradigm ordering survives
// routing: FinePack's packing must not send more wire bytes than P2P's
// one-TLP-per-store stream.
func TestTopologyParadigmsCompared(t *testing.T) {
	results := make(map[Paradigm]*Result)
	for _, par := range []Paradigm{P2P, FinePack} {
		cfg := DefaultConfig()
		cfg.Topology = twinSpec()
		res, err := RunSourceObserved(ringSource(t, 4), par, cfg, nil)
		if err != nil {
			t.Fatalf("RunSourceObserved(%v): %v", par, err)
		}
		results[par] = res
	}
	if fp, p2p := results[FinePack], results[P2P]; fp.WireBytes > p2p.WireBytes {
		t.Fatalf("FinePack wire %d exceeds P2P wire %d on multi-hop fabric",
			fp.WireBytes, p2p.WireBytes)
	}
}
