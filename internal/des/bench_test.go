package des

import "testing"

// BenchmarkSchedulerBurst schedules a same-timestamp burst, then drains it:
// one cohort, the densest pattern a bucket sees. The burst stays at the
// calendar's grow threshold, so the ring does not resize.
func BenchmarkSchedulerBurst(b *testing.B) {
	const burst = calMinBuckets * calGrowFactor
	s := NewScheduler()
	fn := func() {}
	run := func() {
		for j := 0; j < burst; j++ {
			s.After(0, Func(fn))
		}
		s.Run()
	}
	run() // warm-up: fills the event pool and grows the bucket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCalendarResizeOscillation runs the sparse swing of
// TestResizeOscillationAllocFree on the calendar queue: each op grows the
// ring from 256 to 4096 buckets and shrinks it back.
func BenchmarkCalendarResizeOscillation(b *testing.B) {
	benchmarkSwing(b, 2)
}

// BenchmarkCalendarBurstSwing runs the burst swing of
// TestResizeOscillationAllocFree: the same ring swing with 64 events in
// each bucket window.
func BenchmarkCalendarBurstSwing(b *testing.B) {
	benchmarkSwing(b, 16)
}

func benchmarkSwing(b *testing.B, perStamp int) {
	s := NewScheduler()
	fn := func() {}
	swing := func() {
		scheduleSwing(s, fn, perStamp)
		s.Run()
	}
	swing() // warm-up: the first swing grows the pool and the ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swing()
	}
	b.ReportMetric(float64(b.N)*oscillationEvents/b.Elapsed().Seconds(), "events/s")
}
