package interconnect

import (
	"reflect"
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
	"finepack/internal/topo"
)

// twinGraph builds 2 nodes × 2 GPUs with exact arithmetic: 32GB/s
// in-node links, 8GB/s inter-node fabric, zero hop latency.
func twinGraph(t *testing.T, latPS core.PicoSeconds) *topo.Graph {
	t.Helper()
	g, err := topo.Build(topo.Hierarchical("twin2x2", 2, 2,
		topo.LinkClass{Bandwidth: 32e9, Latency: latPS},
		topo.LinkClass{Bandwidth: 8e9, Latency: latPS}))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func topoConfig(g *topo.Graph) Config {
	cfg := DefaultConfig(g.NumGPUs(), 32e9)
	cfg.SwitchLatency = 0
	cfg.PropagationLatency = 0
	cfg.Topology = g
	return cfg
}

func TestTopoSendTiming(t *testing.T) {
	g := twinGraph(t, 0)
	sched, n := newNet(t, topoConfig(g))

	// Intra-node: gpu0 -> gpu1 is 2 hops at 32GB/s; 32000 bytes
	// serialize in 1µs per hop (store-and-forward).
	var intraAt des.Time
	n.Send(0, 1, 32000, func() { intraAt = sched.Now() })
	sched.Run()
	if intraAt != 2*des.Microsecond {
		t.Fatalf("intra arrival = %v, want 2µs", intraAt)
	}

	// Inter-node: gpu0 -> gpu2 is 4 hops: two at 32GB/s (1µs each) and
	// two spine traversals at 8GB/s (4µs each).
	var interAt des.Time
	start := sched.Now()
	n.Send(0, 2, 32000, func() { interAt = sched.Now() })
	sched.Run()
	if want := start + 10*des.Microsecond; interAt != want {
		t.Fatalf("inter arrival = %v, want %v", interAt, want)
	}
}

func TestTopoHopLatency(t *testing.T) {
	g := twinGraph(t, core.PicoSeconds(100_000)) // 100ns per hop
	sched, n := newNet(t, topoConfig(g))
	var doneAt des.Time
	n.Send(0, 1, 32, func() { doneAt = sched.Now() })
	sched.Run()
	// 1ns serialize ×2 hops + 100ns latency ×2 hops.
	if want := 2*des.Nanosecond + 200*des.Nanosecond; doneAt != want {
		t.Fatalf("arrival = %v, want %v", doneAt, want)
	}
}

func TestTopoEdgeAccounting(t *testing.T) {
	g := twinGraph(t, 0)
	sched, n := newNet(t, topoConfig(g))
	n.Send(0, 2, 1000, nil) // inter-node: crosses the spine twice
	n.Send(0, 1, 500, nil)  // intra-node
	sched.Run()
	if got := n.InterNodeEdgeBytes(); got != 2000 {
		t.Fatalf("inter-node edge bytes = %d, want 2000 (two spine hops)", got)
	}
	var total core.Bytes
	for e := 0; e < n.NumEdges(); e++ {
		total += n.EdgeBytes(e)
	}
	// 4 hops × 1000 + 2 hops × 500.
	if total != 5000 {
		t.Fatalf("total edge bytes = %d, want 5000", total)
	}
	if n.BytesSent != 1500 || n.PacketsSent != 2 {
		t.Fatalf("message accounting = %d bytes / %d packets, want 1500/2", n.BytesSent, n.PacketsSent)
	}
}

// hopLog records delivery and hop order for determinism comparison.
type hopLog struct {
	hops       [][4]int
	deliveries [][3]int
}

func (l *hopLog) MessageDelivered(src, dst, wireBytes int, start, end des.Time) {
	l.deliveries = append(l.deliveries, [3]int{src, dst, wireBytes})
}
func (l *hopLog) ReplayScheduled(src, dst, wireBytes, try int, at des.Time) {}
func (l *hopLog) LinkReset(at des.Time, links int)                          {}
func (l *hopLog) HopForwarded(edge, src, dst, wireBytes int, start, end des.Time) {
	l.hops = append(l.hops, [4]int{edge, src, dst, wireBytes})
}

// TestTopoDeliveryOrderDeterminism pins multi-hop delivery determinism:
// an all-to-all burst over the pod4x8 preset forwards hops and delivers
// messages in the same order on every run. Subtests run with t.Parallel,
// and CI runs the test under -race.
func TestTopoDeliveryOrderDeterminism(t *testing.T) {
	run := func() *hopLog {
		spec, err := topo.Preset(topo.PresetPod4x8)
		if err != nil {
			t.Fatal(err)
		}
		g, err := topo.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		sched := des.NewScheduler()
		cfg := DefaultConfig(g.NumGPUs(), 32e9)
		cfg.Topology = g
		n, err := New(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := &hopLog{}
		n.SetObserver(log)
		for src := 0; src < g.NumGPUs(); src++ {
			for dst := 0; dst < g.NumGPUs(); dst++ {
				if src == dst {
					continue
				}
				n.Send(src, dst, 256+16*src+dst, nil)
			}
		}
		sched.Run()
		return log
	}
	ref := run()
	if len(ref.deliveries) != 32*31 {
		t.Fatalf("deliveries = %d, want %d", len(ref.deliveries), 32*31)
	}
	if len(ref.hops) < len(ref.deliveries)*2 {
		t.Fatalf("hops = %d, want >= %d", len(ref.hops), len(ref.deliveries)*2)
	}
	for i := 0; i < 3; i++ {
		i := i
		t.Run("repeat", func(t *testing.T) {
			t.Parallel()
			got := run()
			if !reflect.DeepEqual(ref.hops, got.hops) {
				t.Errorf("run %d: hop order diverged", i)
			}
			if !reflect.DeepEqual(ref.deliveries, got.deliveries) {
				t.Errorf("run %d: delivery order diverged", i)
			}
		})
	}
}

// TestTopoSteadyStateAllocationFree pins the hot-path contract: after
// warmup, multi-hop sends allocate nothing per message. Warmup must be
// generous: beyond the xfer freelist and event slab, the calendar queue's
// bucket slices grow as events land in fresh absolute-time windows (each
// round advances the clock into windows never touched before), and only
// stop once bucket capacities cover the steady traffic pattern. The small
// epsilon mirrors alloc_guard_test.go: the event slab carves one
// allocation per 256 events, which is amortized but not zero.
func TestTopoSteadyStateAllocationFree(t *testing.T) {
	g := twinGraph(t, 0)
	sched, n := newNet(t, topoConfig(g))
	send := func() {
		n.Send(0, 2, 256, nil)
		n.Send(1, 3, 256, nil)
		n.Send(2, 1, 256, nil)
		sched.Run()
	}
	for i := 0; i < 256; i++ { // warmup: freelists, event slab, calendar buckets
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if allocs > 0.05 {
		t.Fatalf("steady-state multi-hop send allocates %v per round, want ~0", allocs)
	}
}

func TestTopoFaultReplay(t *testing.T) {
	g := twinGraph(t, 0)
	cfg := topoConfig(g)
	cfg.Faults = faults.Config{BER: 1e-4, Seed: 7}
	sched, n := newNet(t, cfg)
	delivered := 0
	for i := 0; i < 200; i++ {
		n.Send(0, 2, 4096, func() { delivered++ })
	}
	sched.Run()
	if delivered != 200 {
		t.Fatalf("delivered %d of 200 messages under faults", delivered)
	}
	if n.Replays == 0 {
		t.Fatal("BER 1e-4 at 4KB packets should have forced replays")
	}
	if n.InterNodeEdgeBytes() == 0 {
		t.Fatal("fault-path hops should count edge bytes")
	}
}

func TestTopoGPUCountMismatch(t *testing.T) {
	g := twinGraph(t, 0)
	cfg := DefaultConfig(8, 32e9) // graph has 4
	cfg.Topology = g
	if _, err := New(des.NewScheduler(), cfg); err == nil {
		t.Fatal("GPU-count mismatch must be rejected")
	}
}

// TestTopoPortBusy checks a GPU's port busy time on a multi-hop fabric
// is that of the edges its messages actually leave and arrive on.
func TestTopoPortBusy(t *testing.T) {
	g := twinGraph(t, 0)
	sched, n := newNet(t, topoConfig(g))
	n.Send(0, 2, 32000, nil) // 1µs on gpu0's uplink, 1µs on gpu2's downlink
	sched.Run()
	if b := n.EgressBusy(0); b != des.Microsecond {
		t.Fatalf("egress busy of gpu0 = %v, want 1µs", b)
	}
	if b := n.IngressBusy(2); b != des.Microsecond {
		t.Fatalf("ingress busy of gpu2 = %v, want 1µs", b)
	}
	if b := n.EgressBusy(1) + n.IngressBusy(0); b != 0 {
		t.Fatalf("idle ports report %v busy", b)
	}
}
