package interconnect

import (
	"runtime"
	"testing"

	"finepack/internal/topo"
)

// burstMessages is the cold burst's size: every message is accepted
// before the scheduler runs, so all of them are in flight at once.
const burstMessages = 16384

// TestSendBurstAllocsPerMessage pins what a message in flight costs the
// host on a fresh network: one pooled xfer, carved from a slab, plus its
// one bound callback — about one allocation. A message takes all its
// pipeline state when Send accepts it, so the measurement spans the
// burst's Sends; that includes the destination's credit wait queue and
// the scheduler's events for the credits granted at once. Every source
// sends to GPU 0, so the burst queues on one destination's credits.
func TestSendBurstAllocsPerMessage(t *testing.T) {
	spec, err := topo.Preset(topo.PresetPod4x8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	pod := DefaultConfig(g.NumGPUs(), 32e9)
	pod.Topology = g
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"flat4", DefaultConfig(4, 32e9)},
		{"pod4x8", pod},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, n := newNet(t, tc.cfg)
			delivered := 0
			done := func() { delivered++ }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < burstMessages; i++ {
				n.Send(1+i%(tc.cfg.NumGPUs-1), 0, 64, done)
			}
			runtime.ReadMemStats(&after)
			sched.Run()
			if delivered != burstMessages {
				t.Fatalf("delivered %d of %d messages", delivered, burstMessages)
			}
			if per := float64(after.Mallocs-before.Mallocs) / burstMessages; per > 1.1 {
				t.Fatalf("a cold burst costs %.2f allocations per message in flight, want ≤ 1.1", per)
			}
		})
	}
}
