package interconnect

import (
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
)

// faultCfg returns a zero-latency 4-GPU fabric with the given fault model.
func faultCfg(fc faults.Config) Config {
	cfg := zeroLatency(4, 32e9)
	cfg.Faults = fc
	return cfg
}

func TestCreditBytesBelowUnitRejected(t *testing.T) {
	cfg := DefaultConfig(4, 32e9)
	cfg.CreditBytes = creditUnit - 1
	if _, err := New(des.NewScheduler(), cfg); err == nil {
		t.Fatal("sub-credit-unit CreditBytes accepted; would deadlock with a zero-token pool")
	}
	cfg.CreditBytes = creditUnit
	if _, err := New(des.NewScheduler(), cfg); err != nil {
		t.Fatalf("exactly one credit unit rejected: %v", err)
	}
}

func TestDefaultCreditBytesMatchesDocumented(t *testing.T) {
	// Regression: New used to substitute 64KB for an unset CreditBytes
	// while DefaultConfig documented 256KB.
	cfg := DefaultConfig(4, 32e9)
	cfg.CreditBytes = 0
	_, n := newNet(t, cfg)
	if got := n.Config().CreditBytes; got != DefaultCreditBytes {
		t.Fatalf("unset CreditBytes resolved to %d, want DefaultCreditBytes %d", got, DefaultCreditBytes)
	}
	if DefaultConfig(4, 32e9).CreditBytes != DefaultCreditBytes {
		t.Fatal("DefaultConfig disagrees with DefaultCreditBytes")
	}
}

func TestFaultFreeConfigSkipsFaultPath(t *testing.T) {
	_, n := newNet(t, zeroLatency(4, 32e9))
	if n.fi != nil || n.replaySlots != nil {
		t.Fatal("disabled fault config must not instantiate the reliability path")
	}
}

func TestReplayOnCorruptionEventuallyDelivers(t *testing.T) {
	// A burst at BER 1 until t=5us Naks every attempt; after the burst the
	// packet replays through and must deliver exactly once.
	sched, n := newNet(t, faultCfg(faults.Config{
		Seed: 1,
		Bursts: []faults.Burst{
			{Link: faults.AllLinks, Start: 0, End: 5 * des.Microsecond, BER: 1},
		},
	}))
	delivered := 0
	n.Send(0, 1, 3200, func() { delivered++ }) // 100ns serialize
	sched.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if n.Replays == 0 || n.ReplayedBytes == 0 {
		t.Fatalf("burst produced no replays (replays=%d bytes=%d)", n.Replays, n.ReplayedBytes)
	}
	if n.LinkErrors()["0->1"] != n.Replays {
		t.Fatalf("link errors %v inconsistent with %d replays", n.LinkErrors(), n.Replays)
	}
	if n.BytesSent != 3200 {
		t.Fatalf("BytesSent %d must count the packet once; replays are separate", n.BytesSent)
	}
}

func TestReplayDeterminismAcrossIdenticalSeeds(t *testing.T) {
	run := func(seed int64) (des.Time, uint64, core.Bytes) {
		sched := des.NewScheduler()
		n, err := New(sched, faultCfg(faults.Config{BER: 3e-6, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			n.Send(i%4, (i+1)%4, 4096, nil)
		}
		end := sched.Run()
		return end, n.Replays, n.ReplayedBytes
	}
	e1, r1, b1 := run(42)
	e2, r2, b2 := run(42)
	if e1 != e2 || r1 != r2 || b1 != b2 {
		t.Fatalf("identical seeds diverged: (%v,%d,%d) vs (%v,%d,%d)", e1, r1, b1, e2, r2, b2)
	}
	if r1 == 0 {
		t.Fatal("BER 3e-6 on 4KB packets should produce some replays")
	}
	_, r3, _ := run(43)
	if r3 == r1 {
		t.Logf("note: seeds 42 and 43 happened to give equal replay counts (%d)", r1)
	}
}

func TestReplayBufferFullStallsEgress(t *testing.T) {
	// Depth-1 replay buffer and a dead 0→1 link: the un-acked packet to
	// GPU 1 pins the only slot, so a follow-up packet to healthy GPU 2
	// cannot egress until the first is finally acked after the outage.
	outage := 20 * des.Microsecond
	sched, n := newNet(t, faultCfg(faults.Config{
		Seed:              1,
		ReplayBufferDepth: 1,
		Downs: []faults.Down{
			{Link: faults.Link{Src: 0, Dst: 1}, At: 0, Until: outage},
		},
	}))
	var healthyAt, deadAt des.Time
	n.Send(0, 1, 3200, func() { deadAt = sched.Now() })
	n.Send(0, 2, 3200, func() { healthyAt = sched.Now() })
	sched.Run()
	if deadAt < outage {
		t.Fatalf("dead-link packet delivered at %v, inside the outage", deadAt)
	}
	if healthyAt < deadAt {
		t.Fatalf("healthy-destination packet at %v overtook the replay buffer (dead acked at %v)",
			healthyAt, deadAt)
	}
}

func TestReplayBufferDepthAllowsPipelining(t *testing.T) {
	// With depth 2, the healthy packet proceeds during the outage.
	outage := 20 * des.Microsecond
	sched, n := newNet(t, faultCfg(faults.Config{
		Seed:              1,
		ReplayBufferDepth: 2,
		Downs: []faults.Down{
			{Link: faults.Link{Src: 0, Dst: 1}, At: 0, Until: outage},
		},
	}))
	var healthyAt des.Time
	n.Send(0, 1, 3200, nil)
	n.Send(0, 2, 3200, func() { healthyAt = sched.Now() })
	sched.Run()
	if healthyAt == 0 || healthyAt >= outage {
		t.Fatalf("healthy packet delivered at %v; depth-2 buffer should let it through during the outage", healthyAt)
	}
}

func TestWatchdogRecoversDeadLink(t *testing.T) {
	// A permanently dead link (Until=0): only a watchdog link-level reset
	// can revive it. The run must complete, count a recovered stall, and
	// the retrained link must come back degraded.
	cfg := faultCfg(faults.Config{
		Seed:           1,
		WatchdogWindow: 5 * des.Microsecond,
		Downs: []faults.Down{
			{Link: faults.Link{Src: 0, Dst: 1}, At: 0},
		},
	})
	sched, n := newNet(t, cfg)
	delivered := false
	n.Send(0, 1, 3200, func() { delivered = true })
	sched.Run()
	if !delivered {
		t.Fatal("packet on permanently dead link never delivered")
	}
	if n.RecoveredStalls != 1 {
		t.Fatalf("RecoveredStalls = %d, want 1", n.RecoveredStalls)
	}
	if len(n.Resets()) != 1 || n.Resets()[0].Links != 1 {
		t.Fatalf("reset log = %+v, want one reset retiring one link", n.Resets())
	}
	if n.Replays == 0 {
		t.Fatal("dead-link outage must show up as replays")
	}

	// Post-retrain, the link runs at the default retrain fraction (0.5):
	// a 3200B packet serializes in 200ns per stage instead of 100ns.
	var t0 des.Time = sched.Now()
	var doneAt des.Time
	n.Send(0, 1, 3200, func() { doneAt = sched.Now() })
	sched.Run()
	if got, want := doneAt-t0, 2*200*des.Nanosecond; got != want {
		t.Fatalf("post-retrain transfer took %v, want %v (degraded to half width)", got, want)
	}
	report := n.FaultReport()
	if report.RecoveredStalls != 1 || report.Replays == 0 || len(report.Resets) != 1 {
		t.Fatalf("fault report incomplete: %s", report)
	}
}

func TestDegradationStretchesSerialization(t *testing.T) {
	// 0→1 down-trained to half width from t=0; 3200B at 32GB/s is 100ns
	// per stage healthy, 200ns degraded.
	sched, n := newNet(t, faultCfg(faults.Config{
		Degradations: []faults.Degradation{
			{Link: faults.Link{Src: 0, Dst: 1}, At: 0, BandwidthFraction: 0.5},
		},
	}))
	var degradedAt, healthyAt des.Time
	n.Send(0, 1, 3200, func() { degradedAt = sched.Now() })
	n.Send(2, 1, 3200, func() { healthyAt = sched.Now() })
	sched.Run()
	if degradedAt != 400*des.Nanosecond {
		t.Fatalf("degraded-link arrival = %v, want 400ns", degradedAt)
	}
	// The healthy sender shares only the ingress port; its own egress
	// serializes at full rate.
	if healthyAt >= degradedAt {
		t.Fatalf("healthy link (%v) should beat the degraded one (%v)", healthyAt, degradedAt)
	}
}

func TestBackoffIsBounded(t *testing.T) {
	sched := des.NewScheduler()
	n, err := New(sched, faultCfg(faults.Config{AckTimeout: 100 * des.Nanosecond}))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.backoff(0); got != 100*des.Nanosecond {
		t.Fatalf("first backoff = %v", got)
	}
	if got := n.backoff(3); got != 800*des.Nanosecond {
		t.Fatalf("backoff(3) = %v", got)
	}
	max := n.backoff(faults.MaxBackoffShift)
	if got := n.backoff(faults.MaxBackoffShift + 20); got != max {
		t.Fatalf("backoff unbounded: %v beyond cap %v", got, max)
	}
}

// TestFaultPathSteadyStateAllocationFree pins the hot-path contract on
// the fault path: once the xfer freelist, replay slots and event slab are
// warm, fault-injected sends across the flat fabric's trunk (degraded,
// watchdog armed, no errors drawn) allocate nothing per message. Each
// round ends on the watchdog's check a whole window later, so rounds land
// all over the calendar ring and its buckets need a longer warmup than
// TestTopoSteadyStateAllocationFree's to reach their steady capacity. The
// epsilon is the event slab's amortized carve, as in that test.
func TestFaultPathSteadyStateAllocationFree(t *testing.T) {
	cfg := zeroLatency(8, 32e9)
	cfg.Faults = faults.Config{
		Seed:         1,
		Degradations: []faults.Degradation{{Link: faults.AllLinks, At: 0, BandwidthFraction: 0.5}},
	}
	sched, n := newNet(t, cfg)
	send := func() {
		n.Send(0, 5, 256, nil)
		n.Send(1, 2, 256, nil)
		n.Send(6, 3, 256, nil)
		sched.Run()
	}
	for i := 0; i < 1024; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if allocs > 0.05 {
		t.Fatalf("steady-state fault-path send allocates %v per round, want ~0", allocs)
	}
	if n.Replays != 0 {
		t.Fatalf("no error source configured, yet %d replays", n.Replays)
	}
}
