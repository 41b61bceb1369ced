package interconnect

import (
	"math/rand"
	"reflect"
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
	"finepack/internal/topo"
)

// fabricOutcome is everything a fault configuration that never fires must
// leave unchanged.
type fabricOutcome struct {
	delivered   []des.Time // per message, in send order
	linkBytes   []core.Bytes
	edgeBytes   []core.Bytes
	edgePackets []uint64
}

// runPattern sends a seeded 64-message pattern, staggered over the first
// microsecond, and records its outcome.
func runPattern(t *testing.T, cfg Config) fabricOutcome {
	t.Helper()
	const msgs = 64
	sched, n := newNet(t, cfg)
	rng := rand.New(rand.NewSource(5))
	out := fabricOutcome{delivered: make([]des.Time, msgs)}
	for i := 0; i < msgs; i++ {
		src := rng.Intn(cfg.NumGPUs)
		dst := (src + 1 + rng.Intn(cfg.NumGPUs-1)) % cfg.NumGPUs
		size := 1 + rng.Intn(4096)
		at := des.Time(rng.Intn(1000)) * des.Nanosecond
		sched.At(at, des.Func(func() {
			n.Send(src, dst, size, func() { out.delivered[i] = sched.Now() })
		}))
	}
	sched.Run()
	for s := 0; s < cfg.NumGPUs; s++ {
		for d := 0; d < cfg.NumGPUs; d++ {
			out.linkBytes = append(out.linkBytes, n.LinkBytes(s, d))
		}
	}
	for e := 0; e < n.NumEdges(); e++ {
		out.edgeBytes = append(out.edgeBytes, n.EdgeBytes(e))
		out.edgePackets = append(out.edgePackets, n.EdgePackets(e))
	}
	for i, at := range out.delivered {
		if at == 0 {
			t.Fatalf("message %d never delivered", i)
		}
	}
	return out
}

// TestSilentFaultsMatchIdeal is a metamorphic check of the fault path:
// enabling fault injection whose events can never fire — a full-width
// degradation, a replay buffer deeper than the traffic, no watchdog —
// must not perturb a single delivery time or byte count, on the flat
// fabric (with its trunk hop) and on a multi-hop hierarchy whose edge
// credit loops bind.
func TestSilentFaultsMatchIdeal(t *testing.T) {
	g, err := topo.Build(topo.Hierarchical("twin2x2-credit", 2, 2,
		topo.LinkClass{Bandwidth: 32e9, Latency: 50_000, CreditBytes: 1024},
		topo.LinkClass{Bandwidth: 8e9, Latency: 200_000, CreditBytes: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	silent := faults.Config{
		Seed:              1,
		Degradations:      []faults.Degradation{{Link: faults.AllLinks, At: 0, BandwidthFraction: 1}},
		ReplayBufferDepth: 64,
		DisableWatchdog:   true,
	}
	for _, f := range []struct {
		name string
		cfg  Config
	}{{"flat8", DefaultConfig(8, 32e9)}, {"hier2x2", topoConfig(g)}} {
		cfg := f.cfg
		t.Run(f.name, func(t *testing.T) {
			ideal := runPattern(t, cfg)
			cfg.Faults = silent
			faulty := runPattern(t, cfg)
			differ := 0
			for i := range ideal.delivered {
				if ideal.delivered[i] != faulty.delivered[i] {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d delivery times changed under silent faults", differ, len(ideal.delivered))
			}
			if !reflect.DeepEqual(ideal.linkBytes, faulty.linkBytes) {
				t.Error("per-pair link bytes changed under silent faults")
			}
			if !reflect.DeepEqual(ideal.edgeBytes, faulty.edgeBytes) || !reflect.DeepEqual(ideal.edgePackets, faulty.edgePackets) {
				t.Error("per-edge bytes or packets changed under silent faults")
			}
		})
	}
}
