package interconnect

import (
	"testing"

	"finepack/internal/des"
)

func newNet(t *testing.T, cfg Config) (*des.Scheduler, *Network) {
	t.Helper()
	sched := des.NewScheduler()
	n, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched, n
}

// zeroLatency strips latencies so serialization arithmetic is exact.
func zeroLatency(numGPUs int, bw float64) Config {
	cfg := DefaultConfig(numGPUs, bw)
	cfg.SwitchLatency = 0
	cfg.PropagationLatency = 0
	return cfg
}

func TestValidate(t *testing.T) {
	if _, err := New(des.NewScheduler(), Config{NumGPUs: 1, GPUsPerSwitch: 4}); err == nil {
		t.Fatal("1 GPU should be rejected")
	}
	if _, err := New(des.NewScheduler(), Config{NumGPUs: 4, GPUsPerSwitch: 0}); err == nil {
		t.Fatal("zero radix should be rejected")
	}
}

func TestSendSerializationTime(t *testing.T) {
	// 32GB/s: 32000 bytes serialize in 1us at egress and again at
	// ingress (store-and-forward through the switch).
	sched, n := newNet(t, zeroLatency(4, 32e9))
	var doneAt des.Time
	n.Send(0, 1, 32000, func() { doneAt = sched.Now() })
	sched.Run()
	if doneAt != 2*des.Microsecond {
		t.Fatalf("arrival = %v, want 2us", doneAt)
	}
}

func TestSendLatency(t *testing.T) {
	cfg := zeroLatency(4, 32e9)
	cfg.SwitchLatency = 150 * des.Nanosecond
	cfg.PropagationLatency = 10 * des.Nanosecond
	sched, n := newNet(t, cfg)
	var doneAt des.Time
	n.Send(0, 1, 32, func() { doneAt = sched.Now() })
	sched.Run()
	// 1ns serialize ×2 + 160ns hop.
	want := 2*des.Nanosecond + 160*des.Nanosecond
	if doneAt != want {
		t.Fatalf("arrival = %v, want %v", doneAt, want)
	}
}

func TestEgressContention(t *testing.T) {
	// Two packets from the same source to different destinations share
	// the egress port: the second serializes after the first.
	sched, n := newNet(t, zeroLatency(4, 32e9))
	var t1, t2 des.Time
	n.Send(0, 1, 32000, func() { t1 = sched.Now() })
	n.Send(0, 2, 32000, func() { t2 = sched.Now() })
	sched.Run()
	if t1 != 2*des.Microsecond {
		t.Fatalf("first arrival = %v", t1)
	}
	// Second starts egress at 1us, arrives at 3us (egress 1us + ingress 1us).
	if t2 != 3*des.Microsecond {
		t.Fatalf("second arrival = %v, want 3us", t2)
	}
}

func TestIngressContention(t *testing.T) {
	// Two sources to one destination contend at the ingress port.
	sched, n := newNet(t, zeroLatency(4, 32e9))
	var arrivals []des.Time
	n.Send(0, 3, 32000, func() { arrivals = append(arrivals, sched.Now()) })
	n.Send(1, 3, 32000, func() { arrivals = append(arrivals, sched.Now()) })
	sched.Run()
	if len(arrivals) != 2 {
		t.Fatal("both must arrive")
	}
	// Both egress in parallel (1us), then ingress serializes: 2us, 3us.
	if arrivals[0] != 2*des.Microsecond || arrivals[1] != 3*des.Microsecond {
		t.Fatalf("arrivals = %v, want [2us 3us]", arrivals)
	}
}

func TestCreditBackPressure(t *testing.T) {
	cfg := zeroLatency(4, 32e9)
	cfg.CreditBytes = 4096 // one 4KB packet in flight
	sched, n := newNet(t, cfg)
	var order []int
	n.Send(0, 1, 4096, func() { order = append(order, 1) })
	n.Send(0, 1, 4096, func() { order = append(order, 2) })
	n.Send(0, 1, 4096, func() { order = append(order, 3) })
	sched.Run()
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	cfg := zeroLatency(4, 0) // infinite
	sched, n := newNet(t, cfg)
	var doneAt des.Time
	n.Send(0, 1, 1<<30, func() { doneAt = sched.Now() })
	sched.Run()
	if doneAt != 0 {
		t.Fatalf("infinite-bandwidth transfer took %v", doneAt)
	}
}

// sendAlone sends one message on an otherwise idle fabric and returns
// its transfer time.
func sendAlone(sched *des.Scheduler, n *Network, src, dst, bytes int) des.Time {
	start := sched.Now()
	var doneAt des.Time
	n.Send(src, dst, bytes, func() { doneAt = sched.Now() })
	sched.Run()
	return doneAt - start
}

func TestTopology4GPUsSingleSwitch(t *testing.T) {
	// One leaf switch: every pair is egress + ingress, never a trunk.
	sched, n := newNet(t, zeroLatency(4, 32e9))
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			if got := sendAlone(sched, n, src, dst, 32000); got != 2*des.Microsecond {
				t.Fatalf("%d->%d took %v, want 2us (one switch)", src, dst, got)
			}
		}
	}
}

func TestTopology16GPUsFourSwitches(t *testing.T) {
	// Four leaf switches of four GPUs. A same-switch pair serializes
	// twice with one hop latency; a cross-switch pair adds the trunk and
	// its hop latency. Nothing waits after the ingress port.
	sched, n := newNet(t, DefaultConfig(16, 128e9))
	ser, hop := des.Microsecond, 160*des.Nanosecond
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			want := 2*ser + hop
			if src/4 != dst/4 {
				want = 3*ser + 2*hop
			}
			if got := sendAlone(sched, n, src, dst, 128000); got != want {
				t.Fatalf("%d->%d took %v, want %v", src, dst, got, want)
			}
		}
	}
}

func TestTrunkContention(t *testing.T) {
	// Cross-switch flows share the trunk; same-switch flows do not.
	sched, n := newNet(t, zeroLatency(8, 32e9))
	var crossA, crossB des.Time
	// GPUs 0,1 on switch 0; GPUs 4,5 on switch 1.
	n.Send(0, 4, 32000, func() { crossA = sched.Now() })
	n.Send(1, 5, 32000, func() { crossB = sched.Now() })
	sched.Run()
	// Each: egress 1us ‖, then trunk serializes 1us each (2us total for
	// second), then ingress 1us. First: 3us. Second: 4us.
	if crossA != 3*des.Microsecond {
		t.Fatalf("first cross-switch arrival = %v, want 3us", crossA)
	}
	if crossB != 4*des.Microsecond {
		t.Fatalf("second cross-switch arrival = %v (trunk must serialize), want 4us", crossB)
	}
}

func TestStatsAndLinkBytes(t *testing.T) {
	sched, n := newNet(t, zeroLatency(4, 32e9))
	n.Send(0, 1, 100, nil)
	n.Send(0, 1, 200, nil)
	n.Send(2, 3, 50, nil)
	sched.Run()
	if n.PacketsSent != 3 || n.BytesSent != 350 {
		t.Fatalf("packets=%d bytes=%d", n.PacketsSent, n.BytesSent)
	}
	if n.LinkBytes(0, 1) != 300 {
		t.Fatalf("LinkBytes(0,1) = %d", n.LinkBytes(0, 1))
	}
	if n.LinkBytes(1, 0) != 0 {
		t.Fatal("direction matters")
	}
	// 300 bytes left GPU 0 and reached GPU 1: 9.375ns each way.
	if b := n.EgressBusy(0); b != 9375 {
		t.Fatalf("egress busy = %v, want 9.375ns", b)
	}
	if b := n.IngressBusy(1); b != 9375 {
		t.Fatalf("ingress busy = %v, want 9.375ns", b)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, n := newNet(t, zeroLatency(4, 32e9))
	defer func() {
		if recover() == nil {
			t.Fatal("self-send should panic")
		}
	}()
	n.Send(1, 1, 10, nil)
}

func TestZeroByteSendStillDelivers(t *testing.T) {
	sched, n := newNet(t, zeroLatency(4, 32e9))
	delivered := false
	n.Send(0, 1, 0, func() { delivered = true })
	sched.Run()
	if !delivered {
		t.Fatal("zero-byte send must still complete")
	}
}
