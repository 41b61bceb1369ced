package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file is the scheduler's equivalence oracle: the calendar-queue
// Scheduler and refScheduler, a test-only binary heap with the plain
// pop-one/fire-one loop, must fire every workload in exactly the same
// (At, seq) total order, with identical clocks, counters, and Pending
// figures at every observation point. The reference has no event pool and
// no cohort staging, so the oracle checks the Scheduler's run loop, its
// same-timestamp cohorts and its event recycling against an independent
// model, not only its queue. The random-program test drives both through
// the full surface (At, After, Cancel, Halt, RunUntil, RunBudget, Run)
// including events that schedule and cancel other events from inside
// callbacks; any ordering divergence desynchronizes the shared RNG script
// and shows up as a trace mismatch.

// oracleScheduler is the surface the oracle drives. schedule returns a
// cancel func in place of a Handle, which only the Scheduler has.
type oracleScheduler interface {
	Now() Time
	Fired() uint64
	Pending() int
	Halt()
	Run() Time
	RunUntil(deadline Time) Time
	RunBudget(maxEvents uint64) (Time, error)
	schedule(at Time, fn func()) (cancel func())
}

// realScheduler adapts the Scheduler under test to oracleScheduler.
type realScheduler struct{ *Scheduler }

func (s realScheduler) schedule(at Time, fn func()) func() {
	h := s.At(at, fn)
	return func() { s.Cancel(h) }
}

// refEvent is one reference event. It is never reused, so a cancel func
// that outlives it can only find it popped or removed.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
	pos int // heap position; -1 once popped or removed
}

// refHeap is a position-tracked (At, seq) min-heap for container/heap.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.pos = -1
	return e
}

// refScheduler is the reference model: every event is its own
// allocation, Cancel removes eagerly, and the run loop pops and fires one
// event at a time.
type refScheduler struct {
	now    Time
	seq    uint64
	fired  uint64
	halted bool
	q      refHeap
}

func (r *refScheduler) Now() Time            { return r.now }
func (r *refScheduler) Fired() uint64        { return r.fired }
func (r *refScheduler) Pending() int         { return len(r.q) }
func (r *refScheduler) Halt()                { r.halted = true }
func (r *refScheduler) Run() Time            { t, _ := r.run(^Time(0), 0); return t }
func (r *refScheduler) RunUntil(d Time) Time { t, _ := r.run(d, 0); return t }
func (r *refScheduler) RunBudget(n uint64) (Time, error) {
	return r.run(^Time(0), n)
}

func (r *refScheduler) schedule(at Time, fn func()) func() {
	if at < r.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", at, r.now))
	}
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, e)
	return func() {
		if e.pos >= 0 {
			heap.Remove(&r.q, e.pos)
		}
	}
}

func (r *refScheduler) run(deadline Time, budget uint64) (Time, error) {
	r.halted = false
	start := r.fired
	for !r.halted && len(r.q) > 0 && r.q[0].at <= deadline {
		if budget > 0 && r.fired-start >= budget {
			return r.now, fmt.Errorf("ref: event budget of %d exceeded", budget)
		}
		e := heap.Pop(&r.q).(*refEvent)
		r.now = e.at
		r.fired++
		e.fn()
	}
	return r.now, nil
}

// fireRec is one observation in an oracle trace: a fired event (id ≥ 0) or
// a driver-phase checkpoint (id < 0) with the clock and counters at that
// point, and whether the phase's run stopped with an error.
type fireRec struct {
	id      int
	at      Time
	fired   uint64
	pending int
	failed  bool
}

// oracleScript drives one scheduler through a seed-determined program and
// returns the full observation trace. The program exercises: clustered
// same-timestamp cohorts, zero-delay continuations, far-future events
// (calendar overflow + window migration), cursor rewinds (short delays
// scheduled from far-future callbacks), cancellation of queued / staged /
// fired events, Halt from inside cohorts, RunUntil horizons, and RunBudget
// stops. All randomness flows through one RNG consumed in firing order, so
// the two schedulers receive identical programs exactly as long as their
// firing orders are identical — any divergence amplifies immediately.
//
// The script keeps every handle for the whole run, cancelling through
// handles whose events the Scheduler recycled long ago, and checks each id
// on its own: it fires at most once, never after its Cancel, and, unless
// cancelled first, exactly once by the end. A violation is returned as an
// error.
func oracleScript(s oracleScheduler, seed int64) ([]fireRec, error) {
	const maxEvents = 4000
	rng := rand.New(rand.NewSource(seed))
	var trace []fireRec
	var created []func()
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
		trace = append(trace, fireRec{id, s.Now(), s.Fired(), s.Pending(), false})
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
					created[id]()
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
		created = append(created, s.schedule(at, func() { body(id) }))
	}

	checkpoint := func(phase int, err error) {
		trace = append(trace, fireRec{-1 - phase, s.Now(), s.Fired(), s.Pending(), err != nil})
	}

	for phase := 0; phase < 4; phase++ {
		for i, n := 0, 20+rng.Intn(40); i < n && nextID < maxEvents; i++ {
			schedule(s.Now() + randDelay())
		}
		var err error
		switch phase % 3 {
		case 0:
			s.RunUntil(s.Now() + Time(rng.Intn(5_000_000)))
		case 1:
			_, err = s.RunBudget(uint64(1 + rng.Intn(200))) // a budget stop is expected
		case 2:
			s.Run() // Halt inside a callback may stop it early
		}
		checkpoint(phase, err)
	}
	// Drain; Halt can stop any single Run early, but each call makes
	// progress, so this terminates.
	for s.Pending() > 0 {
		s.Run()
	}
	checkpoint(99, nil)
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
		h, herr := oracleScript(&refScheduler{}, seed)
		c, cerr := oracleScript(realScheduler{NewScheduler()}, seed)
		if herr != nil || cerr != nil {
			t.Fatalf("seed %d: reference: %v; scheduler: %v", seed, herr, cerr)
		}
		if len(h) != len(c) {
			t.Fatalf("seed %d: trace lengths differ: reference %d, scheduler %d",
				seed, len(h), len(c))
		}
		for i := range h {
			if h[i] != c[i] {
				t.Fatalf("seed %d: traces diverge at %d: reference %+v, scheduler %+v",
					seed, i, h[i], c[i])
			}
		}
	}
}

// forBothSchedulers runs a semantics test on the Scheduler ("calendar",
// its queue) and on the reference ("heap"), so the model the oracle
// trusts is itself pinned by written expectations.
func forBothSchedulers(t *testing.T, f func(t *testing.T, s oracleScheduler)) {
	t.Run("calendar", func(t *testing.T) { f(t, realScheduler{NewScheduler()}) })
	t.Run("heap", func(t *testing.T) { f(t, &refScheduler{}) })
}

// wantOrder fails t unless got equals want.
func wantOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		n := 0
		cancel := s.schedule(10, func() { n++ })
		s.schedule(20, func() { n++ })
		s.RunUntil(15)
		if n != 1 {
			t.Fatalf("n = %d after RunUntil(15), want 1", n)
		}
		cancel() // already fired: must not touch counters or the queue
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
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		fired := 0
		cancel := s.schedule(10, func() { fired++ })
		s.schedule(20, func() { fired++ })
		cancel()
		cancel() // second cancel must not decrement live again
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
// firing: an event's callback cancels a same-timestamp sibling that the
// Scheduler has already popped out of the queue into the staged cohort.
// The sibling must not fire, Pending must stay exact mid-cohort, and
// self-cancel of the currently-firing event must be a no-op.
func TestCancelStagedSiblingInCohort(t *testing.T) {
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		var order []string
		cancels := map[string]func(){}
		cancels["a"] = s.schedule(5, func() {
			order = append(order, "a")
			cancels["c"]() // staged sibling, not yet fired
			cancels["a"]() // self: already firing, must be a no-op
			if p := s.Pending(); p != 2 {
				t.Errorf("Pending mid-cohort = %d, want 2 (b and d staged)", p)
			}
		})
		for _, name := range []string{"b", "c", "d"} {
			cancels[name] = s.schedule(5, func() { order = append(order, name) })
		}
		if end := s.Run(); end != 5 {
			t.Fatalf("end = %v, want 5", end)
		}
		wantOrder(t, order, []string{"a", "b", "d"})
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after run, want 0", s.Pending())
		}
	})
}

// TestHaltMidCohortDrainsLeftoversFirst checks that a Halt in the middle
// of a same-timestamp cohort leaves the unfired siblings pending, and the
// next run fires them — in seq order, before anything newly scheduled at
// the same timestamp.
func TestHaltMidCohortDrainsLeftoversFirst(t *testing.T) {
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		var order []string
		s.schedule(7, func() { order = append(order, "a"); s.Halt() })
		s.schedule(7, func() { order = append(order, "b") })
		s.schedule(7, func() { order = append(order, "c") })
		s.Run()
		wantOrder(t, order, []string{"a"})
		if s.Pending() != 2 {
			t.Fatalf("Pending = %d after halt, want 2 leftovers", s.Pending())
		}
		s.schedule(7, func() { order = append(order, "d") }) // same timestamp, later seq
		s.Run()
		wantOrder(t, order, []string{"a", "b", "c", "d"})
	})
}

// TestRunUntilLeavesStagedCohortPastDeadline: leftovers of a halted run
// fire under a later RunUntil whose horizon reaches their timestamp.
func TestRunUntilLeavesStagedCohortPastDeadline(t *testing.T) {
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		n := 0
		s.schedule(10, func() { n++; s.Halt() })
		s.schedule(10, func() { n++ })
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
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		n := 0
		for i := 0; i < 3; i++ {
			s.schedule(3, func() { n++ })
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

// TestBudgetStopLeavesClockOrder: a budget stop between cohorts must not
// stage the next cohort. If it did, an event scheduled after the stop at
// an earlier time would fire after that cohort, with the clock running
// backward.
func TestBudgetStopLeavesClockOrder(t *testing.T) {
	forBothSchedulers(t, func(t *testing.T, s oracleScheduler) {
		var order []string
		s.schedule(10, func() { order = append(order, "a") })
		s.schedule(20, func() { order = append(order, "c") })
		if _, err := s.RunBudget(1); err == nil {
			t.Fatal("budget of 1 with 2 events must error")
		}
		s.schedule(15, func() { order = append(order, "b") })
		if end := s.Run(); end != 20 {
			t.Fatalf("end = %v, want 20", end)
		}
		wantOrder(t, order, []string{"a", "b", "c"})
	})
}

// TestCalendarFarFutureAndRewind exercises the calendar-specific machinery
// directly (overflow residency, window migration, cursor rewind after a
// short delay is scheduled from a far-future callback) and cross-checks
// the firing order against the reference.
func TestCalendarFarFutureAndRewind(t *testing.T) {
	run := func(s oracleScheduler) []Time {
		var fired []Time
		rec := func() { fired = append(fired, s.Now()) }
		// Far beyond the initial 256-bucket horizon: overflow residents.
		for i := 0; i < 64; i++ {
			at := Time(i) * 7 * Millisecond
			s.schedule(at, func() {
				rec()
				// Cursor has jumped far ahead; these land just behind it
				// and in the same window, forcing rewinds and migrations.
				s.schedule(s.Now()+1, rec)
				s.schedule(s.Now()+1500, rec)
			})
		}
		s.Run()
		return fired
	}
	h, c := run(&refScheduler{}), run(realScheduler{NewScheduler()})
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
	s := NewScheduler()
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
