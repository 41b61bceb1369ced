package des

import "container/heap"

// eventHeap is the original binary-heap event queue, retained as the
// reference implementation: dead simple, position-tracked (Cancel removes
// eagerly), and the oracle the calendar queue is fuzzed against. Selected
// for a whole build with `-tags des_heapq`.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	return h[i].before(h[j])
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = idxFired
	*h = old[:n-1]
	return e
}

// push enqueues an event.
//
//finepack:hotpath heap enqueue, once per scheduled event (des_heapq builds)
func (h *eventHeap) push(e *event) { heap.Push(h, e) }

// peek returns the minimum event without popping, or nil when empty.
func (h eventHeap) peek() *event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// remove deletes the event at heap position i (eager cancellation).
func (h *eventHeap) remove(i int) { heap.Remove(h, i) }

// popCohort appends every event sharing the minimum timestamp to dst in
// seq order, marking each staged, and returns the extended slice.
//
//finepack:hotpath heap dequeue, once per fired cohort (des_heapq builds)
func (h *eventHeap) popCohort(dst []*event) []*event {
	if len(*h) == 0 {
		return dst
	}
	at := (*h)[0].at
	for len(*h) > 0 && (*h)[0].at == at {
		e := heap.Pop(h).(*event)
		e.idx = idxStaged
		dst = append(dst, e)
	}
	return dst
}
