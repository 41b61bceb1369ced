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
// one bound callback — about one allocation. The measurement spans the
// whole burst, its Sends and the run that delivers it: the destination's
// credit wait queue, the scheduler's events, and the calendar the burst
// swings through as it drains. Every source sends to GPU 0, so the burst
// queues on one destination's credits.
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
			sched.Run()
			runtime.ReadMemStats(&after)
			if delivered != burstMessages {
				t.Fatalf("delivered %d of %d messages", delivered, burstMessages)
			}
			if per := float64(after.Mallocs-before.Mallocs) / burstMessages; per > 1.1 {
				t.Fatalf("a cold burst costs %.2f allocations per message in flight, want ≤ 1.1", per)
			}
		})
	}
}
