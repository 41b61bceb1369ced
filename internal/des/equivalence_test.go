package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the calendar/heap equivalence oracle: both queue
// implementations must fire every workload in exactly the same (At, seq)
// total order, with identical clocks, counters, and Pending figures at
// every observation point. The random-program test drives both through the
// full Scheduler surface (At, After, Cancel, Halt, RunUntil, RunBudget,
// Run) including events that schedule and cancel other events from inside
// callbacks; any ordering divergence desynchronizes the shared RNG script
// and shows up as a trace mismatch.

// forBothQueues runs a subtest against each queue implementation.
func forBothQueues(t *testing.T, f func(t *testing.T, mk func() *Scheduler)) {
	t.Run("heap", func(t *testing.T) {
		f(t, func() *Scheduler { return newSchedulerWith(true) })
	})
	t.Run("calendar", func(t *testing.T) {
		f(t, func() *Scheduler { return newSchedulerWith(false) })
	})
}

// fireRec is one observation in an oracle trace: a fired event (id ≥ 0) or
// a driver-phase checkpoint (id < 0) with the clock and counters at that
// point.
type fireRec struct {
	id      int
	at      Time
	fired   uint64
	pending int
}

// oracleScript drives one scheduler through a seed-determined program and
// returns the full observation trace. The program exercises: clustered
// same-timestamp cohorts, zero-delay continuations, far-future events
// (calendar overflow + window migration), cursor rewinds (short delays
// scheduled from far-future callbacks), cancellation of queued / staged /
// fired events, Halt from inside cohorts, RunUntil horizons, and RunBudget
// stops. All randomness flows through one RNG consumed in firing order, so
// the two implementations receive identical programs exactly as long as
// their firing orders are identical — any divergence amplifies immediately.
//
// Both queues recycle events, so agreement between them cannot show that
// recycling is safe. The script therefore keeps every handle for the whole
// run, cancelling through handles whose events were recycled long ago,
// and checks each id on its own: it fires at most once, never after its
// Cancel, and, unless cancelled first, exactly once by the end. A
// violation is returned as an error.
func oracleScript(useHeap bool, seed int64) ([]fireRec, error) {
	const maxEvents = 4000
	rng := rand.New(rand.NewSource(seed))
	s := newSchedulerWith(useHeap)
	var trace []fireRec
	var created []Handle
	fired := make([]bool, maxEvents)
	cancelled := make([]bool, maxEvents) // cancelled before it fired
	var violation error
	nextID := 0

	randDelay := func() Time {
		switch rng.Intn(10) {
		case 0, 1, 2: // same-window cluster: big cohorts, dense buckets
			return Time(rng.Intn(4))
		case 3, 4, 5, 6: // near future: the common case the calendar targets
			return Time(rng.Intn(200_000))
		case 7, 8: // a few ring revolutions out
			return Time(rng.Intn(2_000_000))
		default: // far future: overflow heap + migration
			return Time(rng.Intn(100_000_000))
		}
	}

	var schedule func(at Time)
	body := func(id int) {
		switch {
		case fired[id]:
			violation = fmt.Errorf("event %d fired twice", id)
		case cancelled[id]:
			violation = fmt.Errorf("event %d fired after its Cancel", id)
		}
		fired[id] = true
		trace = append(trace, fireRec{id, s.Now(), s.Fired(), s.Pending()})
		for i, n := 0, rng.Intn(4); i < n; i++ {
			switch rng.Intn(8) {
			case 0, 1, 2:
				if nextID < maxEvents {
					schedule(s.Now() + randDelay())
				}
			case 3:
				if nextID < maxEvents {
					schedule(s.Now()) // same-timestamp: extends the cohort's bucket
				}
			case 4, 5:
				// Cancel a random event in any state: queued, staged in the
				// current cohort, already fired, or already cancelled —
				// through a handle whose event may have been recycled.
				if len(created) > 0 {
					id := rng.Intn(len(created))
					s.Cancel(created[id])
					if !fired[id] {
						cancelled[id] = true
					}
				}
			case 6:
				if rng.Intn(8) == 0 {
					s.Halt() // leaves the rest of the cohort staged
				}
			}
		}
	}
	schedule = func(at Time) {
		id := nextID
		nextID++
		created = append(created, s.At(at, func() { body(id) }))
	}

	checkpoint := func(phase int) {
		trace = append(trace, fireRec{-1 - phase, s.Now(), s.Fired(), s.Pending()})
	}

	for phase := 0; phase < 4; phase++ {
		for i, n := 0, 20+rng.Intn(40); i < n && nextID < maxEvents; i++ {
			schedule(s.Now() + randDelay())
		}
		switch phase % 3 {
		case 0:
			s.RunUntil(s.Now() + Time(rng.Intn(5_000_000)))
		case 1:
			s.RunBudget(uint64(1 + rng.Intn(200))) //nolint:errcheck // budget stop is expected
		case 2:
			s.Run() // Halt inside a callback may stop it early
		}
		checkpoint(phase)
	}
	// Drain; Halt can stop any single Run early, but each call makes
	// progress, so this terminates.
	for s.Pending() > 0 {
		s.Run()
	}
	checkpoint(99)
	if violation != nil {
		return trace, violation
	}
	for id := 0; id < nextID; id++ {
		if !fired[id] && !cancelled[id] {
			return trace, fmt.Errorf("event %d neither fired nor was cancelled", id)
		}
	}
	return trace, nil
}

func TestQueueEquivalenceRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		h, herr := oracleScript(true, seed)
		c, cerr := oracleScript(false, seed)
		if herr != nil || cerr != nil {
			t.Fatalf("seed %d: heap: %v; calendar: %v", seed, herr, cerr)
		}
		if len(h) != len(c) {
			t.Fatalf("seed %d: trace lengths differ: heap %d, calendar %d",
				seed, len(h), len(c))
		}
		for i := range h {
			if h[i] != c[i] {
				t.Fatalf("seed %d: traces diverge at %d: heap %+v, calendar %+v",
					seed, i, h[i], c[i])
			}
		}
	}
}

// TestStaleHandleCancelIsNoOp pins the handle contract: once an event's
// slot is recycled for a new event, cancelling through the old handle
// must leave the new event alone. Both ways an event dies are covered: it
// fires, or it is cancelled and its queue drops it.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		nop := func() {}
		firedOld := s.At(10, nop)
		cancelledOld := s.At(20, func() { t.Error("cancelled event fired") })
		s.At(30, nop) // the calendar drops the tombstone on its way here
		s.Cancel(cancelledOld)
		s.Run()

		// All three events are back in the pool: three new ones reuse them.
		n := 0
		reused := map[*event]bool{}
		for i := 0; i < 3; i++ {
			reused[s.At(40, func() { n++ }).e] = true
		}
		for _, old := range []Handle{firedOld, cancelledOld} {
			if !reused[old.e] {
				t.Fatal("a dead event's slot was not reused")
			}
			s.Cancel(old)
		}
		if s.Pending() != 3 {
			t.Fatalf("Pending = %d after stale cancels, want 3", s.Pending())
		}
		s.Run()
		if n != 3 {
			t.Fatalf("%d of the 3 new events fired", n)
		}
	})
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		n := 0
		e := s.At(10, func() { n++ })
		s.At(20, func() { n++ })
		s.RunUntil(15)
		if n != 1 {
			t.Fatalf("n = %d after RunUntil(15), want 1", n)
		}
		s.Cancel(e) // already fired: must not touch counters or the queue
		if s.Pending() != 1 {
			t.Fatalf("Pending = %d after cancelling a fired event, want 1", s.Pending())
		}
		s.Run()
		if n != 2 {
			t.Fatalf("n = %d, want 2", n)
		}
	})
}

func TestCancelTwiceReleasesOnce(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		fired := 0
		e := s.At(10, func() { fired++ })
		s.At(20, func() { fired++ })
		s.Cancel(e)
		s.Cancel(e) // second cancel must not decrement live again
		if s.Pending() != 1 {
			t.Fatalf("Pending = %d after double cancel, want 1", s.Pending())
		}
		if end := s.Run(); end != 20 {
			t.Fatalf("end = %v, want 20", end)
		}
		if fired != 1 {
			t.Fatalf("fired = %d, want 1", fired)
		}
	})
}

// TestCancelStagedSiblingInCohort pins the sharpest edge of batch cohort
// firing: an event's callback cancels a same-timestamp sibling that has
// already been popped out of the queue into the staged cohort. The sibling
// must not fire, Pending must stay exact mid-cohort, and self-cancel of
// the currently-firing event must be a no-op.
func TestCancelStagedSiblingInCohort(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		var order []string
		events := map[string]Handle{}
		events["a"] = s.At(5, func() {
			order = append(order, "a")
			s.Cancel(events["c"]) // staged sibling, not yet fired
			s.Cancel(events["a"]) // self: already firing, must be a no-op
			if p := s.Pending(); p != 2 {
				t.Errorf("Pending mid-cohort = %d, want 2 (b and d staged)", p)
			}
		})
		events["b"] = s.At(5, func() { order = append(order, "b") })
		events["c"] = s.At(5, func() { order = append(order, "c") })
		events["d"] = s.At(5, func() { order = append(order, "d") })
		end := s.Run()
		if end != 5 {
			t.Fatalf("end = %v, want 5", end)
		}
		want := []string{"a", "b", "d"}
		if len(order) != len(want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after run, want 0", s.Pending())
		}
	})
}

// TestHaltMidCohortDrainsLeftoversFirst checks that a Halt in the middle
// of a same-timestamp cohort leaves the unfired siblings staged, and the
// next run fires them — in seq order, before anything newly scheduled at
// the same timestamp.
func TestHaltMidCohortDrainsLeftoversFirst(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		var order []string
		s.At(7, func() { order = append(order, "a"); s.Halt() })
		s.At(7, func() { order = append(order, "b") })
		s.At(7, func() { order = append(order, "c") })
		s.Run()
		if len(order) != 1 || order[0] != "a" {
			t.Fatalf("order after halt = %v, want [a]", order)
		}
		if s.Pending() != 2 {
			t.Fatalf("Pending = %d after halt, want 2 staged leftovers", s.Pending())
		}
		s.At(7, func() { order = append(order, "d") }) // same timestamp, later seq
		s.Run()
		want := []string{"a", "b", "c", "d"}
		if len(order) != len(want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	})
}

// TestRunUntilLeavesStagedCohortPastDeadline: staged leftovers (from a
// halted run) whose timestamp is beyond a later RunUntil's horizon must
// stay staged, untouched.
func TestRunUntilLeavesStagedCohortPastDeadline(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		n := 0
		s.At(10, func() { n++; s.Halt() })
		s.At(10, func() { n++ })
		s.Run()
		if n != 1 || s.Pending() != 1 {
			t.Fatalf("n=%d pending=%d after halt, want 1/1", n, s.Pending())
		}
		s.RunUntil(10) // leftover At == 10 ≤ deadline: fires
		if n != 2 || s.Pending() != 0 {
			t.Fatalf("n=%d pending=%d after RunUntil(10), want 2/0", n, s.Pending())
		}
	})
}

func TestBudgetStopMidCohortResumes(t *testing.T) {
	forBothQueues(t, func(t *testing.T, mk func() *Scheduler) {
		s := mk()
		n := 0
		for i := 0; i < 3; i++ {
			s.At(3, func() { n++ })
		}
		if _, err := s.RunBudget(2); err == nil {
			t.Fatal("budget of 2 with 3 same-timestamp events must error")
		}
		if n != 2 || s.Pending() != 1 {
			t.Fatalf("n=%d pending=%d after budget stop, want 2/1", n, s.Pending())
		}
		if _, err := s.RunBudget(0); err != nil {
			t.Fatal(err)
		}
		if n != 3 || s.Pending() != 0 {
			t.Fatalf("n=%d pending=%d after resume, want 3/0", n, s.Pending())
		}
	})
}

// TestCalendarFarFutureAndRewind exercises the calendar-specific machinery
// directly (overflow residency, window migration, cursor rewind after a
// short delay is scheduled from a far-future callback) and cross-checks
// the firing order against the heap.
func TestCalendarFarFutureAndRewind(t *testing.T) {
	run := func(useHeap bool) []Time {
		s := newSchedulerWith(useHeap)
		var fired []Time
		rec := func() { fired = append(fired, s.Now()) }
		// Far beyond the initial 256-bucket horizon: overflow residents.
		for i := 0; i < 64; i++ {
			at := Time(i) * 7 * Millisecond
			s.At(at, func() {
				rec()
				// Cursor has jumped far ahead; these land just behind it
				// and in the same window, forcing rewinds and migrations.
				s.After(1, rec)
				s.After(1500, rec)
			})
		}
		s.Run()
		return fired
	}
	h, c := run(true), run(false)
	if len(h) != len(c) {
		t.Fatalf("fired %d vs %d events", len(h), len(c))
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("order diverges at %d: %v vs %v", i, h[i], c[i])
		}
	}
}

// TestCalendarResizeStress pushes enough simultaneous load to force ring
// growth (live > 4×buckets) and then drains to force shrink, checking
// counters stay exact throughout.
func TestCalendarResizeStress(t *testing.T) {
	s := newSchedulerWith(false)
	rng := rand.New(rand.NewSource(7))
	const n = 6000 // > 4×1024, forces at least two doublings
	fired := 0
	for i := 0; i < n; i++ {
		s.At(Time(rng.Intn(500_000)), func() { fired++ })
	}
	if s.Pending() != n {
		t.Fatalf("Pending = %d, want %d", s.Pending(), n)
	}
	var last Time
	s.SetProbe(probeFunc(func(at Time) {
		if at < last {
			t.Fatalf("clock went backward: %v after %v", at, last)
		}
		last = at
	}))
	s.Run()
	if fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}

type probeFunc func(Time)

func (f probeFunc) EventFired(at Time) { f(at) }
