package sim

import (
	"bytes"
	"fmt"
	"testing"

	"finepack/internal/obs"
	"finepack/internal/topo"
)

// TestObservedRunMatchesPlainRun checks the recorder is a pure tap: an
// observed run must produce exactly the same Result as an unobserved one.
func TestObservedRunMatchesPlainRun(t *testing.T) {
	tr := genTrace(t, "sssp", 4)
	cfg := DefaultConfig()
	for _, par := range []Paradigm{P2P, FinePack, DMA, UM} {
		plain, err := Run(tr, par, cfg)
		if err != nil {
			t.Fatalf("%v: %v", par, err)
		}
		rec := obs.New(obs.Config{})
		observed, err := RunObserved(tr, par, cfg, rec)
		if err != nil {
			t.Fatalf("%v observed: %v", par, err)
		}
		if plain.Time != observed.Time || plain.WireBytes != observed.WireBytes ||
			plain.Packets != observed.Packets || plain.StoresSent != observed.StoresSent {
			t.Fatalf("%v: observed run diverged: plain{t=%v wire=%d pkts=%d} observed{t=%v wire=%d pkts=%d}",
				par, plain.Time, plain.WireBytes, plain.Packets,
				observed.Time, observed.WireBytes, observed.Packets)
		}
		if rec.EventCount() == 0 {
			t.Fatalf("%v: recorder saw no events", par)
		}
	}
}

// TestObservedRunByteIdentical checks that two same-seed observed runs
// serialize to byte-identical trace and metrics files.
func TestObservedRunByteIdentical(t *testing.T) {
	tr := genTrace(t, "jacobi", 4)
	cfg := DefaultConfig()
	render := func() (traceJSON, metrics []byte) {
		rec := obs.New(obs.Config{})
		if _, err := RunObserved(tr, FinePack, cfg, rec); err != nil {
			t.Fatal(err)
		}
		var tb, mb bytes.Buffer
		if err := rec.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := render()
	t2, m2 := render()
	if !bytes.Equal(t1, t2) {
		t.Fatal("same-seed traces differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("same-seed metrics differ")
	}
}

// TestObservedRunRecordsTaxonomy checks the core event families show up
// for a FinePack run: flushes with causes, link spans, compute phases,
// utilization samples.
func TestObservedRunRecordsTaxonomy(t *testing.T) {
	tr := genTrace(t, "sssp", 4)
	rec := obs.New(obs.Config{})
	if _, err := RunObserved(tr, FinePack, DefaultConfig(), rec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"finepack_queue_flushes_total",
		"finepack_messages_delivered_total",
		"finepack_compute_phases_total",
		"finepack_warps_total",
		"finepack_link_egress_utilization",
		"finepack_sched_events_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %s:\n%.2000s", want, out)
		}
	}
	if len(rec.SeriesList()) == 0 {
		t.Fatal("no sampled series")
	}
	var svg bytes.Buffer
	if err := rec.WriteTimelineSVG(&svg); err != nil {
		t.Fatalf("timeline: %v", err)
	}
}

// TestObservedMultiHopPortUtilization checks that a multi-hop run's
// per-GPU port series measure the links the GPU's messages actually use
// (its first-hop and last-hop edges): every GPU of a dgx2x4 hierarchy
// that sends or receives shows a nonzero egress or ingress sample.
func TestObservedMultiHopPortUtilization(t *testing.T) {
	spec, err := topo.Preset(topo.PresetDGX2x8)
	if err != nil {
		t.Fatal(err)
	}
	spec.GPUsPerNode, spec.Name = 4, "dgx2x4"
	cfg := DefaultConfig()
	cfg.Topology = spec
	tr := genTrace(t, "sssp", 8)
	sends, recvs := make([]bool, 8), make([]bool, 8)
	for _, it := range tr.Iterations {
		for g, w := range it.PerGPU {
			for _, st := range w.Stores {
				sends[g], recvs[st.Dst] = true, true
			}
		}
	}
	rec := obs.New(obs.Config{})
	if _, err := RunObserved(tr, P2P, cfg, rec); err != nil {
		t.Fatal(err)
	}
	busy := map[string]bool{}
	for _, s := range rec.SeriesList() {
		for _, v := range s.V {
			if v > 0 {
				busy[s.Name] = true
			}
		}
	}
	for g := 0; g < 8; g++ {
		if name := fmt.Sprintf("egress util gpu %d", g); sends[g] && !busy[name] {
			t.Errorf("GPU %d sends, but %q has no nonzero sample", g, name)
		}
		if name := fmt.Sprintf("ingress util gpu %d", g); recvs[g] && !busy[name] {
			t.Errorf("GPU %d receives, but %q has no nonzero sample", g, name)
		}
	}
}
