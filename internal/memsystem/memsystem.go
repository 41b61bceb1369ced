// Package memsystem models the destination GPU's memory system as FinePack
// sees it: a byte-accurate sparse memory for correctness checking, a
// unique-byte tracker for wasted-byte accounting (Fig 10), and the
// de-packetizer's ingress buffer that decouples packet arrival from L2
// consumption (§IV-B: "a 64 entry buffer of 128B each, because the
// deaggregated transactions cannot typically be consumed in the same cycle
// by L2").
package memsystem

import (
	"finepack/internal/core"
	"finepack/internal/des"
)

// Memory is a sparse byte-accurate memory, stored as 128B lines. The zero
// value is not usable; call NewMemory.
type Memory struct {
	lines map[uint64]*line
}

type line struct {
	data [core.CacheLineBytes]byte
	mask core.ByteMask
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{lines: make(map[uint64]*line)}
}

// Write applies a store's bytes.
func (m *Memory) Write(s core.Store) {
	for i := 0; i < s.Size; i++ {
		a := s.Addr + uint64(i)
		la := core.LineAddr(a)
		l, ok := m.lines[la]
		if !ok {
			l = &line{}
			m.lines[la] = l
		}
		off := int(a - la)
		l.data[off] = s.Byte(i)
		l.mask.Set(off, off+1)
	}
}

// Read returns the byte at addr and whether it has ever been written.
func (m *Memory) Read(addr uint64) (byte, bool) {
	la := core.LineAddr(addr)
	l, ok := m.lines[la]
	if !ok {
		return 0, false
	}
	off := int(addr - la)
	if !l.mask.Get(off) {
		return 0, false
	}
	return l.data[off], true
}

// BytesWritten returns the number of distinct bytes ever written.
func (m *Memory) BytesWritten() uint64 {
	var n uint64
	for _, l := range m.lines {
		n += uint64(l.mask.Count())
	}
	return n
}

// Equal reports whether two memories hold identical written-byte sets with
// identical values.
func (m *Memory) Equal(other *Memory) bool {
	if m.BytesWritten() != other.BytesWritten() {
		return false
	}
	for la, l := range m.lines {
		ol, ok := other.lines[la]
		if !ok {
			if l.mask.Count() != 0 {
				return false
			}
			continue
		}
		if l.mask != ol.mask {
			return false
		}
		for _, r := range l.mask.Runs() {
			for i := r.Start; i < r.Start+r.Len; i++ {
				if l.data[i] != ol.data[i] {
					return false
				}
			}
		}
	}
	return true
}

// ByteTracker counts unique bytes touched by a store stream at line
// granularity: the denominator of the "useful bytes" category in Fig 10.
// Unlike Memory it stores no data, only enable bits, so tracking millions
// of stores is cheap. Masks are stored by value, so a tracker whose map has
// grown to a working set allocates nothing more, even across Reset.
type ByteTracker struct {
	lines map[uint64]core.ByteMask
	// Touched counts total (non-unique) bytes observed.
	Touched uint64
}

// NewByteTracker returns an empty tracker.
func NewByteTracker() *ByteTracker {
	return &ByteTracker{lines: make(map[uint64]core.ByteMask)}
}

// NewByteTrackers returns n empty trackers in one slice.
func NewByteTrackers(n int) []ByteTracker {
	ts := make([]ByteTracker, n)
	for i := range ts {
		ts[i].lines = make(map[uint64]core.ByteMask)
	}
	return ts
}

// Add records a store's byte range and returns how many of its bytes were
// new (not previously recorded).
func (t *ByteTracker) Add(addr uint64, size int) int {
	t.Touched += uint64(size)
	newBytes := 0
	remaining := size
	a := addr
	for remaining > 0 {
		la := core.LineAddr(a)
		from := int(a - la)
		n := core.CacheLineBytes - from
		if n > remaining {
			n = remaining
		}
		mask := t.lines[la]
		add := core.MaskForRange(from, from+n)
		newBytes += n - mask.OverlapCount(add)
		mask.Or(add)
		t.lines[la] = mask
		a += uint64(n)
		remaining -= n
	}
	return newBytes
}

// Lines returns the number of distinct 128B lines touched.
func (t *ByteTracker) Lines() int { return len(t.lines) }

// Unique returns the number of distinct bytes recorded.
func (t *ByteTracker) Unique() core.Bytes {
	var n core.Bytes
	for _, m := range t.lines {
		n += core.Bytes(m.Count())
	}
	return n
}

// Reset clears the tracker (e.g. at an iteration boundary).
func (t *ByteTracker) Reset() {
	clear(t.lines)
	t.Touched = 0
}

// IngressBuffer models the de-packetizer's landing buffer: disaggregated
// stores occupy 128B slots until the L2 drains them at the local memory
// bandwidth. The paper sizes it at 64 entries; when full, packet
// consumption stalls, back-pressuring the link.
type IngressBuffer struct {
	sched *des.Scheduler
	slots *des.TokenPool
	drain *des.Server
	// DrainBW is the local memory-system drain rate in bytes/second.
	DrainBW float64
	// StoresDrained counts stores written through to memory.
	StoresDrained uint64
	// ops recycles per-store ingress pipelines: Accept runs once per
	// disaggregated store (the simulator's highest-frequency call site),
	// and each pooled op is the des.Handler of its own acquire→drain→
	// release chain, so a steady stream allocates nothing.
	ops des.Pool[ingressOp]
}

// ingressOp is one store's slot-acquire → drain → slot-release pipeline.
// Its lifecycle is strictly linear, so the op itself is the handler of
// both waits, and draining tells Fire which one just ended. It is
// recycled on completion.
type ingressOp struct {
	b        *IngressBuffer
	slots    int
	service  des.Time
	done     des.Handler
	draining bool // Fire runs after the drain, not the slot acquire
}

// Fire drains the store once its slots are held, then releases them.
//
//finepack:hotpath runs once per stage of every disaggregated store
func (op *ingressOp) Fire() {
	b := op.b
	if !op.draining {
		op.draining = true
		b.drain.Request(op.service, op)
		return
	}
	b.slots.Release(op.slots)
	b.StoresDrained++
	done := op.done
	op.done = nil
	b.ops.Put(op)
	if done != nil {
		done.Fire()
	}
}

// DefaultIngressEntries matches §IV-B's de-packetizer buffer.
const DefaultIngressEntries = 64

// NewIngressBuffer builds a buffer with the given slot count and drain
// bandwidth (bytes/second). GV100-class HBM2 sustains ~900GB/s, far above
// any PCIe ingress rate, so the buffer almost never back-pressures — which
// is exactly the paper's argument (§IV-C "the GPU's last-level cache and
// HBM/DRAM have enough bandwidth to match or exceed the rate at which
// stores can arrive from the inter-GPU interconnect").
func NewIngressBuffer(sched *des.Scheduler, entries int, drainBW float64) *IngressBuffer {
	if entries <= 0 {
		entries = DefaultIngressEntries
	}
	return &IngressBuffer{
		sched:   sched,
		slots:   des.NewTokenPool(sched, entries),
		drain:   des.NewServer(sched),
		DrainBW: drainBW,
	}
}

// Accept ingests one disaggregated store: it occupies a slot until the
// drain server has written it to local memory, then fires done (may be
// nil). Stores spanning line boundaries occupy one slot per line.
//
//finepack:hotpath runs once per disaggregated store at the destination
func (b *IngressBuffer) Accept(s core.Store, done des.Handler) {
	slots := 1
	if core.LineAddr(s.Addr) != core.LineAddr(s.Addr+uint64(s.Size)-1) {
		slots = 2
	}
	op := b.ops.Get()
	op.b = b
	op.slots = slots
	op.service = des.DurationForBytes(uint64(s.Size), b.DrainBW)
	op.done = done
	op.draining = false
	b.slots.Acquire(slots, op)
}

// FreeSlots returns the currently available slot count.
func (b *IngressBuffer) FreeSlots() int { return b.slots.Available() }
