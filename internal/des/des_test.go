package des

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	end := s.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestSchedulerEventsScheduleMoreEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			s.After(7, step)
		}
	}
	s.After(7, step)
	end := s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 35 {
		t.Fatalf("end = %v, want 35", end)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(10, func() { fired = true })
	s.Cancel(e)
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel, want 0", s.Pending())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	s.Cancel(e)
	s.Cancel(Handle{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var order []int
	events := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		events = append(events, s.At(Time(i*10), func() { order = append(order, i) }))
	}
	s.Cancel(events[4])
	s.Cancel(events[7])
	s.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full Run, want 4 events", fired)
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.At(1, func() { n++; s.Halt() })
	s.At(2, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("events after halt ran: n = %d", n)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
}

func TestDeterministicOrderUnderRandomInsertion(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var fired []Time
		for i := 0; i < 500; i++ {
			at := Time(rng.Intn(100))
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		return fired
	}
	a := run(42)
	b := run(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("events fired out of time order")
	}
}

func TestDurationForBytes(t *testing.T) {
	// 32 GB/s: 32 bytes take 1000ps (1ns).
	got := DurationForBytes(32, 32e9)
	if got != 1000 {
		t.Fatalf("DurationForBytes(32, 32GB/s) = %v, want 1000ps", got)
	}
	if DurationForBytes(100, 0) != 0 {
		t.Fatal("zero bandwidth should yield zero duration (infinite link)")
	}
	// Rounds up: 1 byte at 1TB/s is 1ps even though exact value is 0.9999...
	if DurationForBytes(1, 1e12) != 1 {
		t.Fatalf("rounding: got %v", DurationForBytes(1, 1e12))
	}
}

func TestDurationForBytesMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := uint64(a), uint64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return DurationForBytes(lo, 32e9) <= DurationForBytes(hi, 32e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(500).String(); got != "500ps" {
		t.Fatalf("Time(500) = %q", got)
	}
	if got := (2 * Second).String(); got != "2.000s" {
		t.Fatalf("2s = %q", got)
	}
	if got := (3 * Microsecond).String(); got != "3.000us" {
		t.Fatalf("3us = %q", got)
	}
}

func TestServerFIFOAndUtilization(t *testing.T) {
	s := NewScheduler()
	srv := NewServer(s)
	var done []int
	srv.Request(100, func() { done = append(done, 1) })
	srv.Request(50, func() { done = append(done, 2) })
	if srv.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", srv.QueueLen())
	}
	end := s.Run()
	if end != 150 {
		t.Fatalf("end = %v, want 150 (serialized service)", end)
	}
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion order = %v", done)
	}
	if srv.Served != 2 {
		t.Fatalf("Served = %d, want 2", srv.Served)
	}
	if u := srv.Utilization(); u != 1 {
		t.Fatalf("Utilization = %v, want 1 (always busy)", u)
	}
}

// TestServerReentrantRequestWithBacklog re-enters Request from a
// completion callback while a backlog waits: the server must still hold one
// request in service at a time and serve the backlog before the new one.
func TestServerReentrantRequestWithBacklog(t *testing.T) {
	s := NewScheduler()
	srv := NewServer(s)
	var order []string
	var at []Time
	finish := func(name string) func() {
		return func() {
			order = append(order, name)
			at = append(at, s.Now())
		}
	}
	srv.Request(10, func() {
		finish("a")()
		srv.Request(10, finish("c"))
		if srv.QueueLen() != 2 {
			t.Errorf("QueueLen after re-entry = %d, want 2 (b in service, c waiting)", srv.QueueLen())
		}
	})
	srv.Request(10, finish("b"))
	end := s.Run()
	if got := strings.Join(order, ","); got != "a,b,c" {
		t.Fatalf("completion order = %s, want a,b,c", got)
	}
	if len(at) != 3 || at[0] != 10 || at[1] != 20 || at[2] != 30 {
		t.Fatalf("completion times = %v, want [10 20 30] (one request in service at a time)", at)
	}
	if end != 30 || srv.Busy != 30 || srv.Served != 3 {
		t.Fatalf("end = %v, Busy = %v, Served = %d; want 30, 30, 3", end, srv.Busy, srv.Served)
	}
}

func TestServerIdleGap(t *testing.T) {
	s := NewScheduler()
	srv := NewServer(s)
	srv.Request(10, nil)
	s.At(100, func() { srv.Request(10, nil) })
	end := s.Run()
	if end != 110 {
		t.Fatalf("end = %v, want 110", end)
	}
	if u := srv.Utilization(); u <= 0.17 || u >= 0.19 {
		t.Fatalf("Utilization = %v, want ~20/110", u)
	}
}

func TestTokenPoolBlocksUntilRelease(t *testing.T) {
	s := NewScheduler()
	p := NewTokenPool(s, 2)
	got := []int{}
	p.Acquire(2, func() { got = append(got, 1) })
	p.Acquire(1, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 1 {
		t.Fatalf("second acquire should block: %v", got)
	}
	p.Release(1)
	s.Run()
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("release did not wake waiter: %v", got)
	}
	if p.Available() != 0 {
		t.Fatalf("Available = %d, want 0", p.Available())
	}
}

func TestTokenPoolFIFONoStarvation(t *testing.T) {
	s := NewScheduler()
	p := NewTokenPool(s, 0)
	var got []int
	p.Acquire(5, func() { got = append(got, 5) }) // big request first
	p.Acquire(1, func() { got = append(got, 1) })
	p.Release(1) // not enough for head-of-line
	s.Run()
	if len(got) != 0 {
		t.Fatalf("small waiter jumped the queue: %v", got)
	}
	p.Release(5)
	s.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 1 {
		t.Fatalf("wake order = %v, want [5 1]", got)
	}
	if p.MaxWaiters != 2 {
		t.Fatalf("MaxWaiters = %d, want 2", p.MaxWaiters)
	}
}

func TestTokenPoolZeroAcquire(t *testing.T) {
	s := NewScheduler()
	p := NewTokenPool(s, 0)
	ran := false
	p.Acquire(0, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("zero-credit acquire should run immediately")
	}
}

func TestRunBudgetExceeded(t *testing.T) {
	s := NewScheduler()
	// A self-perpetuating timer: the queue never drains.
	var tick func()
	tick = func() { s.After(Nanosecond, tick) }
	s.After(0, tick)
	_, err := s.RunBudget(1000)
	if err == nil {
		t.Fatal("runaway event loop must exceed the budget")
	}
	if s.Pending() == 0 {
		t.Fatal("budget error must fire with work still pending")
	}
	if s.Fired() != 1000 {
		t.Fatalf("fired %d events, want exactly the budget", s.Fired())
	}
}

func TestRunBudgetWithinBudget(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.After(Time(i)*Nanosecond, func() { count++ })
	}
	end, err := s.RunBudget(1000)
	if err != nil {
		t.Fatalf("budget hit on a finite run: %v", err)
	}
	if count != 10 || end != 9*Nanosecond {
		t.Fatalf("count=%d end=%v", count, end)
	}
}

func TestRunBudgetZeroIsUnlimited(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 100; i++ {
		s.After(Time(i), func() { count++ })
	}
	if _, err := s.RunBudget(0); err != nil {
		t.Fatalf("zero budget must mean unlimited: %v", err)
	}
	if count != 100 {
		t.Fatalf("count=%d", count)
	}
}

func TestRunBudgetResetsPerCall(t *testing.T) {
	// The budget counts events fired in this call, not over the
	// scheduler's lifetime.
	s := NewScheduler()
	for i := 0; i < 50; i++ {
		s.After(Time(i), func() {})
	}
	if _, err := s.RunBudget(60); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.After(Time(i), func() {})
	}
	if _, err := s.RunBudget(60); err != nil {
		t.Fatalf("second call inherited the first call's spend: %v", err)
	}
}

// TestWaitQueuesReuseStorageUnderBacklog keeps a standing backlog on a
// Server and on a TokenPool, so their wait queues never drain to empty,
// and checks that both serve strictly in arrival order while their
// storage stays bounded by the backlog, not by the number served.
func TestWaitQueuesReuseStorageUnderBacklog(t *testing.T) {
	const backlog, total = 8, 10_000
	check := func(t *testing.T, served []int, maxCap int) {
		t.Helper()
		if len(served) != total {
			t.Fatalf("served %d, want %d", len(served), total)
		}
		for i, id := range served {
			if id != i {
				t.Fatalf("served %d at position %d: not FIFO", id, i)
			}
		}
		if maxCap > 2*backlog {
			t.Fatalf("wait queue grew to cap %d under a backlog of %d", maxCap, backlog)
		}
	}

	t.Run("server", func(t *testing.T) {
		s := NewScheduler()
		srv := NewServer(s)
		var served []int
		next, maxCap := 0, 0
		var submit func()
		submit = func() {
			id := next
			next++
			srv.Request(10, func() {
				served = append(served, id)
				if next < total {
					// From a fresh event, not from inside the completion:
					// finishService starts the next request itself once
					// the callback returns.
					s.After(0, submit)
				}
			})
			maxCap = max(maxCap, cap(srv.queue))
		}
		for i := 0; i < backlog; i++ {
			submit()
		}
		s.Run()
		check(t, served, maxCap)
	})

	t.Run("token-pool", func(t *testing.T) {
		s := NewScheduler()
		p := NewTokenPool(s, 1)
		var served []int
		next, maxCap := 0, 0
		var acquire func()
		acquire = func() {
			id := next
			next++
			p.Acquire(1, func() {
				served = append(served, id)
				s.After(10, func() { p.Release(1) })
				if next < total {
					acquire()
				}
			})
			maxCap = max(maxCap, cap(p.waiters))
		}
		for i := 0; i < backlog; i++ {
			acquire()
		}
		s.Run()
		check(t, served, maxCap)
	})
}

// TestStaleHandleCancelIsNoOp pins the handle contract: once an event's
// slot is recycled for a new event, cancelling through the old handle
// must leave the new event alone. Both ways an event dies are covered: it
// fires, or it is cancelled and its queue drops it.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	// Named after the calendar queue, the Scheduler's event queue, as the
	// semantics tests are (see forBothSchedulers).
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
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
