package des

import "math/bits"

// calendarQueue is the scheduler's event queue: a calendar of fixed-width time
// buckets with O(1) enqueue and dequeue for near-future events, which is
// almost every event this simulator fires (link serialization at ps
// granularity, credit grants, hop delays, zero-delay continuations). The
// design, and the argument for why it fires in exact (At, seq) order, is
// documented in DESIGN.md §12. In brief:
//
//   - Each bucket covers one calWidth-picosecond window and holds its
//     events as a slice sorted by (At, seq) with a consumed-prefix head
//     index, so popping is a pointer bump and same-timestamp cohorts are
//     contiguous.
//   - A bitmap marks non-empty buckets; the scan for the next event skips
//     empty windows with word-wide TrailingZeros jumps instead of walking
//     them.
//   - Events beyond one ring revolution sit in a small (At, seq)-ordered
//     overflow heap and migrate into buckets window by window as the scan
//     cursor approaches — the scan never advances past an overflow event,
//     so bucket order and overflow order merge exactly.
//   - Cancellation is lazy: a cancelled event becomes a tombstone dropped
//     when its bucket position is reached. Every drop point hands the
//     tombstone back to the event pool.
//   - The ring resizes lazily as event density shifts: it doubles when
//     live events exceed calGrowFactor× the bucket count and halves when
//     they fall below a quarter of it, rebuilding in O(live + buckets).
//     The ring, bitmap and bucket storage outlive a resize, so a ring that
//     swings between sizes allocates only on its first swing.
type calendarQueue struct {
	buckets  []calBucket // capacity: the largest ring reached
	mask     uint64      // len(buckets)-1; len is a power of two
	bitmap   []uint64    // capacity: the largest ring reached, /64
	curW     uint64      // scan cursor: absolute window number (at >> calWidthLog)
	live     int         // queued non-tombstoned events (buckets + overflow)
	overflow overflowHeap
	pool     *eventPool // where dropped tombstones go
	moving   []*event   // resize scratch: the live events being redistributed
}

const (
	// calWidthLog fixes the bucket width at 2^10 = 1024ps: finer than the
	// inter-event spacing of back-to-back small-packet serializations
	// (32B at 32GB/s is 1000ps) so dense traffic spreads across buckets,
	// and coarse enough that a hop delay (~160ns) is only ~160 windows —
	// three bitmap words — ahead of the cursor.
	calWidthLog = 10
	// calMinBuckets/calMaxBuckets bound the ring: 256 buckets cover 262µs
	// of horizon at minimum, 64K cover ~67ms at maximum.
	calMinBuckets = 256
	calMaxBuckets = 1 << 16
	// calGrowFactor triggers a ring doubling once live events exceed this
	// multiple of the bucket count (shrink triggers at 1/4 of the count).
	calGrowFactor = 4
	// calKeepCap is the largest bucket capacity a resize keeps. Emptied
	// buckets keep their storage, so a ring that oscillates between sizes
	// reuses it; a burst bucket, holding more than 4× the grow-trigger
	// average, is released instead so that it does not pin its peak for
	// the rest of the run.
	calKeepCap = 4 * calGrowFactor
)

// calBucket holds one window's events sorted by (At, seq); entries before
// head are consumed (and nil'd: their events may already be recycled).
type calBucket struct {
	head int
	ev   []*event
}

func (q *calendarQueue) init(pool *eventPool) {
	q.pool = pool
	q.buckets = make([]calBucket, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.bitmap = make([]uint64, calMinBuckets/64)
}

// push enqueues an event: into its bucket when it lands within one ring
// revolution of the scan cursor, into the overflow heap otherwise.
func (q *calendarQueue) push(e *event) {
	w := uint64(e.at) >> calWidthLog
	if w < q.curW {
		// The cursor ran ahead of the clock (it advances to the next
		// event's window before that event fires); a new event between
		// the clock and the cursor rewinds the scan. Never below the
		// clock itself: At ≥ now is enforced by Scheduler.At.
		q.curW = w
	}
	e.idx = idxQueued
	q.live++
	if w-q.curW >= uint64(len(q.buckets)) {
		q.overflow.push(e)
		return
	}
	q.insert(e, w)
	if q.live > len(q.buckets)*calGrowFactor && len(q.buckets) < calMaxBuckets {
		q.resize(len(q.buckets) * 2)
	}
}

// insert places e, belonging to window w, into its bucket keeping the
// bucket sorted by (At, seq). seq grows monotonically, so among equal
// timestamps the new event always lands last and the common scheduling
// patterns (future timestamps, zero-delay continuations) append at or
// near the tail. A full bucket that is being drained at its head while it
// fills at its tail (the current window under a burst) compacts instead
// of regrowing past its consumed prefix.
func (q *calendarQueue) insert(e *event, w uint64) {
	idx := w & q.mask
	b := &q.buckets[idx]
	if len(b.ev) == cap(b.ev) {
		b.ev, b.head = compact(b.ev, b.head)
	}
	i := len(b.ev)
	for i > b.head && e.before(b.ev[i-1]) {
		i--
	}
	b.ev = append(b.ev, nil)
	copy(b.ev[i+1:], b.ev[i:])
	b.ev[i] = e
	q.bitmap[idx>>6] |= 1 << (idx & 63)
}

// peek returns the earliest live event without popping, or nil.
func (q *calendarQueue) peek() *event { return q.scan() }

// popCohort pops every event sharing the minimum timestamp — contiguous at
// the head of one bucket — marks them staged, and appends them to dst in
// seq order.
//
//finepack:hotpath calendar dequeue, once per fired cohort
func (q *calendarQueue) popCohort(dst []*event) []*event {
	e := q.scan()
	if e == nil {
		return dst
	}
	at := e.at
	idx := q.curW & q.mask
	b := &q.buckets[idx]
	for b.head < len(b.ev) {
		c := b.ev[b.head]
		if c.at != at {
			break
		}
		b.ev[b.head] = nil
		b.head++
		if c.idx == idxCancelled {
			q.pool.put(c)
			continue
		}
		c.idx = idxStaged
		q.live--
		dst = append(dst, c)
	}
	if b.head == len(b.ev) {
		q.resetBucket(idx)
	}
	if n := len(q.buckets); n > calMinBuckets && q.live < n/4 {
		q.resize(n / 2)
	}
	return dst
}

// scan locates the earliest live event, advancing the cursor, dropping
// tombstones, and migrating due overflow events along the way. It returns
// nil only when no live event is queued.
func (q *calendarQueue) scan() *event {
	misses := 0
	for q.live > 0 {
		curIdx := q.curW & q.mask
		setIdx, hasB := q.nextSetIdx(curIdx)
		var dB uint64
		if hasB {
			dB = (setIdx - curIdx) & q.mask
		}
		if of := q.overflowHead(); of != nil {
			if dOv := (uint64(of.at) >> calWidthLog) - q.curW; !hasB || dOv <= dB {
				// The overflow head's window is due at or before the
				// nearest non-empty bucket: merge that whole window into
				// its bucket and rescan, so bucket and overflow events
				// interleave in exact (At, seq) order.
				q.curW += dOv
				q.migrateWindow()
				continue
			}
		}
		if !hasB {
			panic("des: calendar queue lost track of live events")
		}
		q.curW += dB
		idx := q.curW & q.mask
		b := &q.buckets[idx]
		for b.head < len(b.ev) {
			e := b.ev[b.head]
			if uint64(e.at)>>calWidthLog != q.curW {
				// Later-revolution resident (possible after a cursor
				// rewind shrank the horizon); not due this window.
				break
			}
			if e.idx == idxCancelled {
				b.ev[b.head] = nil
				b.head++
				q.pool.put(e)
				continue
			}
			return e
		}
		if b.head == len(b.ev) {
			q.resetBucket(idx)
			continue
		}
		// Only later-revolution events here: step past this window. If
		// such residents make the forward scan churn, fall back to a
		// direct minimum jump.
		q.curW++
		if misses++; misses > 128 {
			q.jumpToMin()
			misses = 0
		}
	}
	return nil
}

// migrateWindow moves every overflow event belonging to the cursor's
// window into its bucket (sorted insert keeps bucket order exact).
func (q *calendarQueue) migrateWindow() {
	for {
		e := q.overflowHead()
		if e == nil || uint64(e.at)>>calWidthLog != q.curW {
			return
		}
		q.overflow.pop()
		q.insert(e, q.curW)
	}
}

// overflowHead returns the earliest live overflow event, dropping
// tombstones at the heap root.
func (q *calendarQueue) overflowHead() *event {
	for {
		e := q.overflow.peek()
		if e == nil || e.idx != idxCancelled {
			return e
		}
		q.pool.put(q.overflow.pop())
	}
}

// jumpToMin repositions the cursor directly at the window of the globally
// minimal queued event — the escape hatch when the forward scan keeps
// hitting buckets whose residents are revolutions away. A tombstone head
// is a valid jump target: the scan drops it there and proceeds.
func (q *calendarQueue) jumpToMin() {
	var min *event
	for wi, word := range q.bitmap {
		for word != 0 {
			i := uint64(wi)<<6 + uint64(bits.TrailingZeros64(word))
			word &= word - 1
			b := &q.buckets[i]
			if b.head < len(b.ev) {
				if e := b.ev[b.head]; min == nil || e.before(min) {
					min = e
				}
			}
		}
	}
	if of := q.overflowHead(); of != nil && (min == nil || of.before(min)) {
		min = of
	}
	if min != nil {
		q.curW = uint64(min.at) >> calWidthLog
	}
}

// nextSetIdx returns the index of the first non-empty bucket at or ring-
// forward of idx, scanning whole bitmap words.
func (q *calendarQueue) nextSetIdx(idx uint64) (uint64, bool) {
	words := uint64(len(q.bitmap))
	wordI := idx >> 6
	bit := idx & 63
	if w := q.bitmap[wordI] & (^uint64(0) << bit); w != 0 {
		return wordI<<6 + uint64(bits.TrailingZeros64(w)), true
	}
	for i := uint64(1); i < words; i++ {
		wi := (wordI + i) % words
		if w := q.bitmap[wi]; w != 0 {
			return wi<<6 + uint64(bits.TrailingZeros64(w)), true
		}
	}
	if w := q.bitmap[wordI] & (1<<bit - 1); w != 0 {
		return wordI<<6 + uint64(bits.TrailingZeros64(w)), true
	}
	return 0, false
}

// resetBucket clears a fully-consumed bucket for reuse (capacity kept; all
// consumed entries were already nil'd) and drops its bitmap bit.
func (q *calendarQueue) resetBucket(idx uint64) {
	b := &q.buckets[idx]
	b.head = 0
	b.ev = b.ev[:0]
	q.bitmap[idx>>6] &^= 1 << (idx & 63)
}

// resize rebuilds the ring with n buckets, redistributing live events and
// dropping tombstones; overflow events that now fit the wider horizon
// migrate in, and events beyond a narrower one migrate out. The ring and
// bitmap are re-sliced within the largest ring reached, and every emptied
// bucket keeps up to calKeepCap of its storage.
func (q *calendarQueue) resize(n int) {
	moving := q.moving[:0]
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, e := range b.ev[b.head:] {
			if e.idx == idxCancelled {
				q.pool.put(e)
				continue
			}
			moving = append(moving, e)
		}
		clear(b.ev)
		b.head = 0
		if cap(b.ev) > calKeepCap {
			b.ev = nil
		} else {
			b.ev = b.ev[:0]
		}
	}
	if n > cap(q.buckets) {
		grown := make([]calBucket, n)
		copy(grown, q.buckets[:cap(q.buckets)])
		q.buckets = grown
		q.bitmap = make([]uint64, n/64)
	} else {
		q.buckets = q.buckets[:n]
		q.bitmap = q.bitmap[:n/64]
		clear(q.bitmap)
	}
	q.mask = uint64(n - 1)
	for _, e := range moving {
		w := uint64(e.at) >> calWidthLog
		if w-q.curW >= uint64(n) {
			q.overflow.push(e)
			continue
		}
		q.insert(e, w)
	}
	clear(moving)
	q.moving = moving[:0]
	for {
		of := q.overflowHead()
		if of == nil {
			return
		}
		w := uint64(of.at) >> calWidthLog
		if w-q.curW >= uint64(n) {
			return
		}
		q.overflow.pop()
		q.insert(of, w)
	}
}

// overflowHeap is a plain (At, seq)-ordered min-heap for events beyond the
// ring horizon. It tracks no positions: the calendar cancels lazily, so
// removal never needs an index.
type overflowHeap struct {
	ev []*event
}

func (h *overflowHeap) peek() *event {
	if len(h.ev) == 0 {
		return nil
	}
	return h.ev[0]
}

func (h *overflowHeap) push(e *event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ev[i].before(h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *overflowHeap) pop() *event {
	n := len(h.ev)
	e := h.ev[0]
	h.ev[0] = h.ev[n-1]
	h.ev[n-1] = nil
	h.ev = h.ev[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.ev[l].before(h.ev[min]) {
			min = l
		}
		if r < n && h.ev[r].before(h.ev[min]) {
			min = r
		}
		if min == i {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
	return e
}
