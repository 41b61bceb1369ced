package interconnect

import (
	"math/rand"
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
)

// TestAllToAllConservation: every packet sent arrives exactly once, in
// bounded time, for randomized all-to-all traffic.
func TestAllToAllConservation(t *testing.T) {
	sched := des.NewScheduler()
	n, err := New(sched, DefaultConfig(8, 32e9))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sent, arrived := 0, 0
	var bytes uint64
	for i := 0; i < 5000; i++ {
		src := rng.Intn(8)
		dst := rng.Intn(8)
		if src == dst {
			continue
		}
		size := 1 + rng.Intn(4096)
		sent++
		bytes += uint64(size)
		n.Send(src, dst, size, func() { arrived++ })
	}
	end := sched.Run()
	if arrived != sent {
		t.Fatalf("arrived %d of %d", arrived, sent)
	}
	if n.BytesSent != core.Bytes(bytes) {
		t.Fatalf("BytesSent = %d, want %d", n.BytesSent, bytes)
	}
	// Aggregate time is bounded below by the busiest port's serialization.
	var maxPort core.Bytes
	for src := 0; src < 8; src++ {
		var out core.Bytes
		for dst := 0; dst < 8; dst++ {
			out += n.LinkBytes(src, dst)
		}
		if out > maxPort {
			maxPort = out
		}
	}
	lower := des.DurationForBytes(uint64(maxPort), 32e9)
	if end < lower {
		t.Fatalf("finished at %v, below the serialization bound %v", end, lower)
	}
	// And bounded above by everything serializing through one port twice
	// plus latency slack.
	upper := des.DurationForBytes(2*bytes, 32e9) + des.Time(sent)*200*des.Nanosecond
	if end > upper {
		t.Fatalf("finished at %v, above the serial bound %v", end, upper)
	}
}

// TestBandwidthScalesThroughput: doubling link bandwidth halves (±20%) the
// makespan of a fixed bulk load.
func TestBandwidthScalesThroughput(t *testing.T) {
	run := func(bw float64) des.Time {
		sched := des.NewScheduler()
		cfg := DefaultConfig(4, bw)
		cfg.SwitchLatency = 0
		cfg.PropagationLatency = 0
		n, err := New(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			n.Send(i%4, (i+1)%4, 4096, nil)
		}
		return sched.Run()
	}
	slow, fast := run(32e9), run(64e9)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("2x bandwidth gave %.2fx speedup", ratio)
	}
}

// TestCreditClampAllowsOversizedMessages: a message bigger than the whole
// credit pool must still pass (streaming through the receiver buffer).
func TestCreditClampAllowsOversizedMessages(t *testing.T) {
	sched := des.NewScheduler()
	cfg := DefaultConfig(4, 32e9)
	cfg.CreditBytes = 4096
	n, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := false
	n.Send(0, 1, 1<<20, func() { delivered = true })
	sched.Run()
	if !delivered {
		t.Fatal("oversized message deadlocked on credits")
	}
}

// TestHotspotSerializesAtIngress: N sources blasting one destination are
// limited by the destination port, not the sources.
func TestHotspotSerializesAtIngress(t *testing.T) {
	sched := des.NewScheduler()
	cfg := DefaultConfig(4, 32e9)
	cfg.SwitchLatency = 0
	cfg.PropagationLatency = 0
	n, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const msg = 64000 // 2us each at 32GB/s
	for src := 0; src < 3; src++ {
		n.Send(src, 3, msg, nil)
	}
	end := sched.Run()
	// Ingress must serialize 3×2us; egress ran in parallel.
	if end < 3*2*des.Microsecond {
		t.Fatalf("hotspot finished at %v, ingress not serializing", end)
	}
	if u := float64(n.EgressBusy(0)) / float64(end); u > 0.5 {
		t.Fatalf("egress 0 utilization %v; sources should mostly idle", u)
	}
}

// TestHighBERConservation: at a bit-error rate where roughly half of all
// 4KB packets are corrupted per attempt, the Ack/Nak replay protocol must
// still deliver every packet exactly once.
func TestHighBERConservation(t *testing.T) {
	sched := des.NewScheduler()
	cfg := DefaultConfig(8, 32e9)
	// 8×4096 bits at 2e-5 BER → per-attempt error probability ≈ 0.48.
	cfg.Faults = faults.Config{BER: 2e-5, Seed: 99}
	n, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sent, arrived := 0, 0
	for i := 0; i < 2000; i++ {
		src := rng.Intn(8)
		dst := rng.Intn(8)
		if src == dst {
			continue
		}
		sent++
		n.Send(src, dst, 4096, func() { arrived++ })
	}
	sched.Run()
	if arrived != sent {
		t.Fatalf("arrived %d of %d under high BER", arrived, sent)
	}
	// ≈0.48 error probability → expected replays within a wide band of
	// one per delivered packet; zero or wildly many means the lottery or
	// the replay loop is broken.
	if n.Replays < uint64(sent)/4 || n.Replays > uint64(sent)*4 {
		t.Fatalf("replays = %d for %d packets at ~0.5 loss; expected the same order of magnitude", n.Replays, sent)
	}
	if n.ReplayedBytes != core.Bytes(n.Replays*4096) {
		t.Fatalf("replayed bytes %d inconsistent with %d replays of 4096B", n.ReplayedBytes, n.Replays)
	}
	var linkErrs uint64
	for _, v := range n.LinkErrors() {
		linkErrs += v
	}
	if linkErrs != n.Replays {
		t.Fatalf("per-link error counts sum to %d, want %d", linkErrs, n.Replays)
	}
	if n.RecoveredStalls != 0 {
		t.Fatalf("no dead links configured, yet %d recovered stalls", n.RecoveredStalls)
	}
}

// TestTrunkIsolation: same-switch traffic does not consume trunk capacity.
func TestTrunkIsolation(t *testing.T) {
	sched := des.NewScheduler()
	cfg := DefaultConfig(8, 32e9)
	cfg.SwitchLatency = 0
	cfg.PropagationLatency = 0
	n, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the trunk with cross-switch traffic, then check a
	// same-switch transfer is unaffected.
	for i := 0; i < 10; i++ {
		n.Send(0, 4, 320000, nil) // 10us each across the trunk
	}
	var localDone des.Time
	n.Send(1, 2, 32000, func() { localDone = sched.Now() })
	sched.Run()
	// The local transfer needs only 2us (egress+ingress), regardless of
	// the trunk backlog.
	if localDone > 3*des.Microsecond {
		t.Fatalf("same-switch transfer delayed to %v by trunk traffic", localDone)
	}
}
