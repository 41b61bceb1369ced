package sim

import (
	"runtime"
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/interconnect"
)

// plainBurst is how many stores one burst sends: every one is accepted
// before the scheduler runs, so all of them are in flight at once.
const plainBurst = 16384

// newPlainSender returns GPU 0's sender on a fresh flat 4-GPU network.
func newPlainSender(tb testing.TB) (*des.Scheduler, *sender) {
	tb.Helper()
	sched := des.NewScheduler()
	net, err := interconnect.New(sched, interconnect.DefaultConfig(4, 32e9))
	if err != nil {
		tb.Fatal(err)
	}
	return sched, newSender(sched, net, 0, nil)
}

// sendPlainBurst sends plainBurst 8-byte stores from GPU 0, round-robin
// to the other GPUs, and runs the scheduler until all are delivered.
func sendPlainBurst(tb testing.TB, sched *des.Scheduler, s *sender) {
	cfg := core.DefaultConfig()
	for i := 0; i < plainBurst; i++ {
		st := core.Store{Dst: 1 + i%3, Addr: uint64(i) * 8, Size: 8}
		if err := s.sendPlain(cfg, st); err != nil {
			tb.Fatal(err)
		}
	}
	sched.Run()
	if s.outstanding != 0 {
		tb.Fatalf("%d packets still in flight", s.outstanding)
	}
}

// TestSendPlainAllocsPerStore pins what a P2P store costs the host once
// the sender is warm: its packet and store bytes come from the sender's
// slab and its pipeline state from pools, so a store makes a small
// fraction of an allocation (a packet and a byte copy apiece would be 2).
func TestSendPlainAllocsPerStore(t *testing.T) {
	sched, s := newPlainSender(t)
	sendPlainBurst(t, sched, s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sendPlainBurst(t, sched, s)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / plainBurst; per > 0.05 {
		t.Fatalf("a warm sender makes %.3f allocations per plain store, want ≤ 0.05", per)
	}
	if s.plainBytes != 2*plainBurst*8 {
		t.Fatalf("sender counted %d plain bytes, want %d", s.plainBytes, 2*plainBurst*8)
	}
}

// BenchmarkSendPlain measures the P2P egress path: one op is a burst of
// 16384 plain stores through a warm sender, delivered on a flat 4-GPU
// network.
func BenchmarkSendPlain(b *testing.B) {
	sched, s := newPlainSender(b)
	sendPlainBurst(b, sched, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendPlainBurst(b, sched, s)
	}
}
