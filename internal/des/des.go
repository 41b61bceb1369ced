// Package des implements the discrete-event simulation kernel underneath
// the multi-GPU system model. It provides a simulated clock with picosecond
// resolution, an event queue with deterministic ordering, and a minimal
// process/resource toolkit used by the interconnect and GPU models.
//
// The kernel is intentionally single-threaded: determinism matters more than
// host parallelism for an architectural study, and every run with the same
// inputs must produce bit-identical statistics.
//
// The event queue is a calendar queue tuned for the simulator's
// near-future event distribution (DESIGN.md §12). Events fire in (At, seq)
// total order; the in-package equivalence oracle checks that order, and
// the run loop around it, against a test-only binary-heap scheduler.
package des

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp in picoseconds. Picoseconds keep byte-level
// events on a >100GB/s link exact: one byte at 128GB/s is ~7.8ps. Time and
// core.PicoSeconds share the time-ps unit class, so converting between
// them is legal; converting either to a byte or credit type is a
// simunits finding.
//
//finepack:unit time-ps
type Time uint64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts the timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts the timestamp to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// DurationForBytes returns the time to move n bytes at rate bytes/second.
// It rounds up so that a transfer never finishes early.
func DurationForBytes(n uint64, bytesPerSecond float64) Time {
	if bytesPerSecond <= 0 || math.IsInf(bytesPerSecond, 0) {
		return 0
	}
	ps := float64(n) / bytesPerSecond * float64(Second)
	// Snap to the nearest integer when the float result is within rounding
	// noise of it, so 32B at exactly 32GB/s is 1000ps and not 1001ps; only
	// genuinely fractional durations round up.
	if r := math.Round(ps); math.Abs(ps-r) < 1e-6 {
		return Time(r)
	}
	return Time(math.Ceil(ps))
}

// Event state markers carried in event.idx. The calendar queue never
// tracks positions, so a queued event carries idxQueued. A pooled event
// keeps the marker it died with (idxFired or idxCancelled), so a handle
// that still matches its seq cancels nothing.
const (
	idxFired     = -1 // popped and fired (or currently firing)
	idxCancelled = -2 // cancelled before firing
	idxStaged    = -3 // popped into the firing cohort, not yet fired
	idxQueued    = -4 // queued in the calendar (bucket or overflow)
)

// Handler is a continuation the scheduler runs: an event's action, a
// credit grant, a service completion. A model's pooled per-message object
// implements it, so scheduling itself stores only the pointer and binds
// no closure per message.
type Handler interface{ Fire() }

// Func adapts a plain function to a Handler. A func value is pointer
// shaped, so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled handler. Events with equal timestamps fire in the
// order they were scheduled (FIFO), which keeps runs deterministic. Events
// are recycled through the scheduler's eventPool, so callers never hold
// one directly: they hold a Handle.
type event struct {
	at   Time
	h    Handler
	seq  uint64
	idx  int    // one of the idx* state markers
	next *event // bucket link while queued, free-list link while pooled
	prev *event // bucket link while queued
}

// before reports whether e precedes o in the (at, seq) total firing order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Handle names one scheduled event, for Cancel. The event behind it is
// recycled once it fires, or once the queue drops it after a Cancel; its
// next use carries a new seq, which is unique per scheduler, so a stale
// handle no longer matches and cancels nothing. The zero Handle cancels
// nothing either.
type Handle struct {
	e   *event
	seq uint64
}

// Probe observes scheduler execution for the observability layer. It is
// deliberately minimal — one call per fired event — so the hot loop pays a
// single nil check when no probe is attached. Implementations must not
// schedule events or mutate model state: the probe is a read-only tap.
type Probe interface {
	// EventFired is called after the clock advances to the event's
	// timestamp, immediately before its handler fires.
	EventFired(at Time)
}

// Scheduler owns the simulated clock and event queue.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now    Time
	seq    uint64
	fired  uint64
	inRun  bool
	maxT   Time
	halted bool
	probe  Probe
	pool   eventPool

	cq calendarQueue

	// Firing cohort: popCohort moves every event sharing the minimum
	// timestamp out of the queue in one batch, and the run loop fires
	// them in seq order with per-event halt/budget checks. stagedLive
	// counts staged events not yet fired or cancelled, so Pending stays
	// exact while a cohort is in flight (Halt and RunBudget can leave
	// staged leftovers for the next run to drain first).
	cohort     []*event
	cohortPos  int
	stagedLive int
}

// eventSlabSize is the bump-allocation block for events: the pool's miss
// path carves them from slabs, one heap allocation per block.
const eventSlabSize = 256

// eventPool recycles events. A fired event, and a cancelled one once its
// queue has dropped it, goes on the free list; a new event takes one from
// there before it carves the slab, so steady-state scheduling allocates
// nothing. Every pooled event has a nil handler and so pins nothing.
type eventPool struct {
	free *event
	slab []event
}

func (p *eventPool) get() *event {
	if e := p.free; e != nil {
		p.free = e.next
		return e
	}
	if len(p.slab) == 0 {
		p.slab = make([]event, eventSlabSize)
	}
	e := &p.slab[0]
	p.slab = p.slab[1:]
	return e
}

// put returns a dead event (idxFired or idxCancelled, h already nil).
func (p *eventPool) put(e *event) {
	e.next = p.free
	p.free = e
}

// NewScheduler returns a scheduler at time zero.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	s.cq.init(&s.pool)
	return s
}

// SetProbe attaches (or with nil, detaches) an execution probe.
func (s *Scheduler) SetProbe(p Probe) { s.probe = p }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (staged cohort
// leftovers from a halted run included: they have not fired).
func (s *Scheduler) Pending() int { return s.cq.live + s.stagedLive }

// At schedules h to fire at absolute time t. Scheduling in the past
// panics: it always indicates a model bug and silently clamping would hide
// it.
//
//finepack:hotpath every simulated action schedules through At
func (s *Scheduler) At(t Time, h Handler) Handle {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	e := s.pool.get()
	e.at, e.h, e.seq = t, h, s.seq
	s.seq++
	s.cq.push(e)
	return Handle{e, e.seq}
}

// After schedules h to fire delay picoseconds from now.
func (s *Scheduler) After(delay Time, h Handler) Handle {
	return s.At(s.now+delay, h)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event, through a stale handle, or through the zero
// Handle is a no-op. The queue cancels lazily (the event becomes a
// tombstone dropped, and recycled, at pop time), but the handler is
// released immediately so a cancelled event never pins it. A
// staged cohort sibling — popped in the same same-timestamp batch but not
// yet fired — is cancelled too: batch popping must not make cancellation
// able to miss.
func (s *Scheduler) Cancel(h Handle) {
	e := h.e
	if e == nil || e.seq != h.seq {
		return // zero handle, or the event was recycled
	}
	switch {
	case e.idx == idxQueued: // queued: tombstone
		e.idx = idxCancelled
		e.h = nil
		s.cq.live--
	case e.idx == idxStaged: // staged: the run loop skips and recycles it
		e.idx = idxCancelled
		e.h = nil
		s.stagedLive--
	}
	// idxFired / idxCancelled: no-op.
}

// Halt stops the current Run after the in-flight event returns.
func (s *Scheduler) Halt() { s.halted = true }

// Run executes events until the queue is empty.
// It returns the final simulated time.
func (s *Scheduler) Run() Time {
	t, _ := s.run(Time(math.MaxUint64), 0)
	return t
}

// RunUntil executes events with timestamps ≤ deadline, advancing the clock
// to each event's timestamp. It returns the simulated time after the last
// executed event (or deadline if the queue drained earlier than that but
// events remain in the future — the clock never moves past work not done).
func (s *Scheduler) RunUntil(deadline Time) Time {
	t, _ := s.run(deadline, 0)
	return t
}

// RunBudget executes events until the queue is empty, but fails once more
// than maxEvents events have fired with work still pending. A model bug
// that schedules events forever (a retry loop, a self-perpetuating timer)
// then surfaces as a clear error instead of an infinite loop. maxEvents
// zero means unlimited (identical to Run).
func (s *Scheduler) RunBudget(maxEvents uint64) (Time, error) {
	return s.run(Time(math.MaxUint64), maxEvents)
}

// peek returns the earliest live queued event without popping, or nil.
func (s *Scheduler) peek() *event { return s.cq.peek() }

// popCohort moves every queued event sharing the minimum timestamp into
// s.cohort in seq order and marks them staged: the calendar slices the
// cohort off the head of one bucket.
func (s *Scheduler) popCohort() {
	s.cohort = s.cq.popCohort(s.cohort[:0])
	s.cohortPos = 0
	s.stagedLive += len(s.cohort)
}

// run is the shared engine behind Run/RunUntil/RunBudget: pop a cohort of
// same-timestamp events in one batch, then fire them one at a time with
// per-event deadline, budget, and halt checks, exactly as a plain
// pop-one-fire-one loop behaves (the equivalence oracle's reference).
//
//finepack:hotpath the DES event loop fires every simulated event
func (s *Scheduler) run(deadline Time, budget uint64) (Time, error) {
	if s.inRun {
		panic("des: re-entrant Run")
	}
	s.inRun = true
	s.halted = false
	defer func() { s.inRun = false }() //finepack:allow hotalloc -- one closure per Run invocation, not per event
	start := s.fired
	var err error
	for !s.halted {
		// Next event: a staged one, usually from the cohort popped below;
		// after a Halt or budget stop, the leftovers of an interrupted
		// cohort, drained before the queue is consulted again. With the
		// cohort spent, the queue's head stands in for the checks, so a
		// stopped run never leaves a cohort staged ahead of the clock.
		var next *event
		for s.cohortPos < len(s.cohort) {
			e := s.cohort[s.cohortPos]
			if e.idx != idxStaged { // cancelled while staged
				s.cohortPos++
				s.pool.put(e)
				continue
			}
			next = e
			break
		}
		if next == nil {
			if next = s.peek(); next == nil {
				break
			}
		}
		if next.at > deadline {
			// Past this call's horizon: a queued event stays queued, a
			// leftover cohort stays staged.
			break
		}
		if budget > 0 && s.fired-start >= budget {
			err = fmt.Errorf("des: event budget of %d exceeded at %v (pending=%d)", //finepack:allow hotalloc -- budget exhaustion ends the run; formatting here is terminal
				budget, s.now, s.Pending())
			break
		}
		if next.idx == idxQueued {
			s.popCohort()
			continue
		}
		s.cohortPos++
		s.stagedLive--
		next.idx = idxFired
		s.now = next.at
		s.fired++
		if s.probe != nil {
			s.probe.EventFired(next.at)
		}
		// Recycle the event before firing its handler, so the events
		// the handler schedules can reuse it. The handler is dropped
		// from the pooled event; holding it would pin it.
		h := next.h
		next.h = nil
		s.pool.put(next)
		h.Fire()
	}
	if s.now > s.maxT {
		s.maxT = s.now
	}
	return s.now, err
}
