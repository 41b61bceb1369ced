package interconnect

import (
	"math"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"finepack/internal/topo"
)

// burstMessages is the cold burst's size: every message is accepted
// before the scheduler runs, so all of them are in flight at once.
const burstMessages = 16384

// TestSendBurstAllocsPerMessage pins what a message in flight costs the
// host on a fresh network: one pooled xfer, carved from a slab and its own
// event handler, so a small fraction of an allocation (0.013 on flat4,
// 0.031 on pod4x8 on amd64). The measurement spans the whole burst, its
// Sends and the run that delivers it: the destination's credit wait
// queue, the scheduler's events, and the calendar the burst swings
// through as it drains. Every source sends to GPU 0, so the burst queues
// on one destination's credits.
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
			if per := float64(after.Mallocs-before.Mallocs) / burstMessages; per > 0.05 {
				t.Fatalf("a cold burst costs %.3f allocations per message in flight, want ≤ 0.05", per)
			}
		})
	}
}

// TestXferSize pins the per-message pipeline state at 80 B: a run holds
// one xfer per message in flight at its peak, so every byte here scales
// with the paper's fine-grained P2P traffic.
func TestXferSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 80 B layout assumes 64-bit pointers")
	}
	if got := unsafe.Sizeof(xfer{}); got != 80 {
		t.Fatalf("xfer is %d B, want 80", got)
	}
}

// TestTransferRejectsOversizedMessage: the pipeline carries message sizes
// as int32, so a larger message panics instead of wrapping.
func TestTransferRejectsOversizedMessage(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed math.MaxInt32")
	}
	_, n := newNet(t, DefaultConfig(4, 32e9))
	defer func() {
		if recover() == nil {
			t.Fatal("a message above math.MaxInt32 bytes was accepted")
		}
	}()
	big := math.MaxInt32
	big++
	n.Send(0, 1, big, nil)
}
