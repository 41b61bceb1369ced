package des

import "testing"

const (
	// oscillationEvents is one swing's burst: enough live events to grow
	// the calendar ring from 256 to swingBuckets buckets (it doubles past
	// 4 live events per bucket), drained back down to 256 — the swing a
	// ring AllReduce makes once per collective window.
	oscillationEvents = 9000
	swingBuckets      = 4096
)

// scheduleSwing schedules one swing's burst: pairs of same-timestamp
// events 256ps apart, eight events per bucket window, each inside the
// ring's horizon as the ring grows under it. The clock first advances to
// a boundary of the largest ring, so every swing lands in the same
// buckets at every ring size: what a later swing allocates is storage a
// resize threw away, not a bucket touched for the first time.
func scheduleSwing(s *Scheduler, fn func()) {
	const ring = Time(swingBuckets) << calWidthLog
	base := (s.Now()/ring + 1) * ring
	s.At(base, fn)
	s.Run()
	for i := 0; i < oscillationEvents; i++ {
		s.At(base+Time(i/2)*256, fn)
	}
}

// TestResizeOscillationAllocFree swings the live event count across the
// calendar's grow and shrink thresholds, cycle after cycle, and requires
// every cycle after the first to allocate nothing: recycled events, and a
// ring whose storage survives its resizes.
func TestResizeOscillationAllocFree(t *testing.T) {
	// Named after the calendar queue, the Scheduler's event queue, as the
	// semantics tests are (see forBothSchedulers).
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		nop := func() {}
		scheduleSwing(s, nop)
		if n := len(s.cq.buckets); n != swingBuckets {
			t.Fatalf("ring at %d buckets after the burst, want %d", n, swingBuckets)
		}
		s.Run()
		if n := len(s.cq.buckets); n != calMinBuckets {
			t.Fatalf("ring at %d buckets after the drain, want %d", n, calMinBuckets)
		}
		allocs := testing.AllocsPerRun(4, func() {
			scheduleSwing(s, nop)
			s.Run()
		})
		if allocs != 0 {
			t.Fatalf("a grow/shrink cycle allocates %.1f times after the first, want 0", allocs)
		}
	})
}
