package core

import (
	"fmt"
	"io"
	"slices"
)

// Queue is the FinePack remote write queue (Fig 7/8): a dedicated SRAM
// between the intra-GPU crossbar and the network egress port, partitioned
// per destination GPU. Outbound remote stores are buffered so that (1)
// repeated stores to the same bytes are overwritten in place and only the
// most recent value egresses, and (2) stores within an open address window
// accumulate until the packetizer can emit one large FinePack transaction.
//
// Each partition holds up to Config.MaxOpenWindows open outer transactions
// (§IV-C "An alternative design might maintain multiple open outer
// transactions for each target GPU so that accesses to data structures
// spanning two aligned regions do not thrash the remote write queue"); the
// paper's evaluated design is one window.
//
// Emitted packets are delivered to the emit callback in flush order; PCIe
// keeps TLPs ordered, so same-address ordering is maintained end to end.
//
// A Queue is not safe for concurrent use: like the hardware it models it
// processes one store at a time, and the surrounding discrete-event
// simulator is single-threaded by design.
type Queue struct {
	cfg   Config
	parts map[int]*partition
	emit  func(*Packet)
	stats QueueStats

	// Freelists recycle the structures that churn on every window flush.
	// Recycled windows keep their entry map (emptied) and order slice;
	// recycled entries keep their data array — safe because the byte mask
	// is reset and all reads are mask-gated. Emitted packets and their
	// payload buffers are not recycled but allocated at their exact final
	// size: tens of thousands can be in flight at once, and a pool would
	// hold that peak, at its largest capacities, for the rest of the run.
	freeWindows []*window
	freeEntries []*lineEntry
	runScratch  []Run
	dstScratch  []int
}

// QueueStats aggregates the counters behind Figs 10 and 11.
type QueueStats struct {
	// StoresIn counts stores written into the queue.
	StoresIn uint64
	// BytesIn counts payload bytes written into the queue.
	BytesIn Bytes
	// BytesOverwritten counts bytes coalesced away by same-address
	// overwrite: traffic plain P2P would have sent redundantly.
	BytesOverwritten Bytes
	// Packets counts FinePack outer transactions emitted.
	Packets uint64
	// PlainPackets counts fallback plain TLPs (runs whose offset could
	// not be represented in the sub-header offset field, atomics, and
	// individually flushed entries).
	PlainPackets uint64
	// StoresPerPacketSum sums StoresMerged over FinePack packets, for
	// Fig 11's average.
	StoresPerPacketSum uint64
	// SubPackets counts sub-packets across all FinePack packets.
	SubPackets uint64
	// DataBytes, SubheaderBytes, PayloadBytes and WireBytes decompose
	// emitted traffic: data, sub-header compression overhead, outer
	// payload (data+subheaders) and total on-wire bytes.
	DataBytes      Bytes
	SubheaderBytes Bytes
	PayloadBytes   Bytes
	WireBytes      Bytes
	// Flushes tallies window flushes by cause.
	Flushes [NumFlushCauses]uint64
}

// AvgStoresPerPacket returns Fig 11's metric: the mean number of stores
// aggregated into a single FinePack transaction.
func (s QueueStats) AvgStoresPerPacket() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.StoresPerPacketSum) / float64(s.Packets)
}

// NewQueue builds a queue with the given config. Emitted packets are passed
// to emit; a nil emit discards them (stats are still collected).
func NewQueue(cfg Config, emit func(*Packet)) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		emit = func(*Packet) {}
	}
	return &Queue{cfg: cfg, parts: make(map[int]*partition), emit: emit}, nil
}

// Config returns the queue's configuration.
func (q *Queue) Config() Config { return q.cfg }

// Stats returns a snapshot of the accumulated counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// partition is the per-destination coalescing buffer (Fig 8). The SRAM
// entry budget (Config.QueueEntries) is shared across the partition's open
// windows; entries are 128B lines in fully-associative maps, with
// insertion order preserved so packetization is deterministic.
type partition struct {
	dst     int
	windows []*window // open outer transactions, oldest first
	entries int       // total entries across windows
}

// window is one open outer transaction: a base address, its line entries,
// and the exact payload accounting for the current contents —
// Σ per entry (enabled bytes + runs × sub-header), the complement of the
// paper's "available payload length register" — with the run count beside
// it, so a flush knows its packet's sub-packet count and data bytes before
// it allocates.
type window struct {
	base        uint64
	entries     map[uint64]*lineEntry
	order       []uint64
	payloadUsed int
	runs        int // Σ per entry mask.NumRuns()
	stores      int
}

// lineEntry is one 128B remote write queue entry: tag, data, byte enables
// (Table III: 144-byte entries = 128B data + 16B byte-enable bits).
type lineEntry struct {
	line uint64
	data [CacheLineBytes]byte
	mask ByteMask
	cost int // enabled bytes + runs × subheader bytes
}

func (q *Queue) part(dst int) *partition {
	p, ok := q.parts[dst]
	if !ok {
		p = &partition{dst: dst}
		q.parts[dst] = p
	}
	return p
}

// segment is the portion of a store falling within one cache line.
type segment struct {
	line    uint64
	from    int // first byte within line
	to      int // one past last byte within line
	dataOff int // offset of this segment within the store payload
}

// storeSegments splits a store at 128B line boundaries. Stores out of L1
// touch at most two lines (size ≤ 128B), so the result fits a fixed pair
// and never touches the heap.
func storeSegments(s Store) (segs [2]segment, n int) {
	addr := s.Addr
	remaining := s.Size
	dataOff := 0
	for remaining > 0 {
		line := LineAddr(addr)
		from := int(addr - line)
		take := CacheLineBytes - from
		if take > remaining {
			take = remaining
		}
		segs[n] = segment{line: line, from: from, to: from + take, dataOff: dataOff}
		n++
		addr += uint64(take)
		dataOff += take
		remaining -= take
	}
	return segs, n
}

// newWindow returns a ready-to-use window at base, recycled if possible.
//
//finepack:allow hotalloc -- the map is allocated once per pooled window on the freelist miss path and recycled thereafter
func (q *Queue) newWindow(base uint64) *window {
	if n := len(q.freeWindows); n > 0 {
		w := q.freeWindows[n-1]
		q.freeWindows = q.freeWindows[:n-1]
		w.base = base
		return w
	}
	return &window{base: base, entries: make(map[uint64]*lineEntry)}
}

// newEntry returns a zero-mask entry for line, recycled if possible.
func (q *Queue) newEntry(line uint64) *lineEntry {
	if n := len(q.freeEntries); n > 0 {
		e := q.freeEntries[n-1]
		q.freeEntries = q.freeEntries[:n-1]
		e.line = line
		return e
	}
	return &lineEntry{line: line}
}

// releaseWindow empties a closed window onto the freelists.
func (q *Queue) releaseWindow(w *window) {
	for line, e := range w.entries {
		q.releaseEntry(e)
		delete(w.entries, line)
	}
	w.order = w.order[:0]
	w.payloadUsed = 0
	w.runs = 0
	w.stores = 0
	q.freeWindows = append(q.freeWindows, w)
}

func (q *Queue) releaseEntry(e *lineEntry) {
	e.mask = ByteMask{}
	e.cost = 0
	q.freeEntries = append(q.freeEntries, e)
}

// findWindow returns the open window whose address range contains addr.
func (p *partition) findWindow(cfg Config, addr uint64) *window {
	for _, w := range p.windows {
		if cfg.InWindow(w.base, addr) {
			return w
		}
	}
	return nil
}

// Write buffers one remote store. It implements the arrival rules of
// §IV-B: window membership and payload-capacity checks, flush-and-restart
// on failure, associative merge on success.
//
//finepack:hotpath runs once per warp store
func (q *Queue) Write(s Store) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Size > CacheLineBytes {
		return fmt.Errorf("core: store of %dB exceeds one cache line; the L1 splits larger stores", s.Size) //finepack:allow hotalloc -- model-bug branch; never taken on a well-formed trace
	}
	q.stats.StoresIn++
	q.stats.BytesIn += Bytes(s.Size)

	p := q.part(s.Dst)
	segArr, nseg := storeSegments(s)
	segs := segArr[:nseg]

	w := p.findWindow(q.cfg, s.Addr)
	if w == nil {
		// No open window covers the store: open one, evicting the
		// oldest if the partition is at its open-transaction limit.
		if len(p.windows) >= q.cfg.maxOpenWindows() {
			q.flushWindow(p, p.windows[0], CauseWindowMiss)
		}
		w = q.newWindow(q.cfg.WindowBase(s.Addr))
		p.windows = append(p.windows, w)
	}

	// A cache line may be resident in only one open window: when windows
	// are smaller than a line, a straddling store can touch a line another
	// window already buffers, and merging here while older bytes sit there
	// would let flush order break same-address ordering. Flush such
	// windows first so their bytes egress before the new ones buffer.
	for _, seg := range segs {
		for {
			var conflict *window
			for _, ow := range p.windows {
				if ow != w {
					if _, ok := ow.entries[seg.line]; ok {
						conflict = ow
						break
					}
				}
			}
			if conflict == nil {
				break
			}
			q.flushWindow(p, conflict, CauseWindowMiss)
		}
	}

	// Condition 2: worst-case cost (each touched line may add its bytes
	// plus one new sub-header) must fit the window's remaining payload.
	worst := 0
	newEntries := 0
	for _, seg := range segs {
		worst += (seg.to - seg.from) + q.cfg.SubheaderBytes
		if _, ok := w.entries[seg.line]; !ok {
			newEntries++
		}
	}
	if w.payloadUsed+worst > q.cfg.MaxPayload {
		q.flushWindow(p, w, CausePayloadFull)
		w = q.newWindow(q.cfg.WindowBase(s.Addr))
		p.windows = append(p.windows, w)
		newEntries = len(segs)
	}
	// Condition 3 (implied by the fixed SRAM): enough free entries across
	// the partition. Evict oldest windows until the store fits.
	for p.entries+newEntries > q.cfg.QueueEntries {
		victim := p.windows[0]
		q.flushWindow(p, victim, CauseEntriesFull)
		if victim == w {
			w = q.newWindow(q.cfg.WindowBase(s.Addr))
			p.windows = append(p.windows, w)
			newEntries = len(segs)
		}
	}

	for _, seg := range segs {
		q.mergeSegment(p, w, s, seg)
	}
	w.stores++
	return nil
}

// mergeSegment applies one line-segment of a store to a window entry,
// maintaining the exact payload accounting.
func (q *Queue) mergeSegment(p *partition, w *window, s Store, seg segment) {
	e, ok := w.entries[seg.line]
	if !ok {
		e = q.newEntry(seg.line)
		w.entries[seg.line] = e
		w.order = append(w.order, seg.line)
		p.entries++
	}
	segMask := MaskForRange(seg.from, seg.to)
	q.stats.BytesOverwritten += Bytes(e.mask.OverlapCount(segMask))

	oldCost, oldRuns := e.cost, e.mask.NumRuns()
	for i := seg.from; i < seg.to; i++ {
		e.data[i] = s.Byte(seg.dataOff + (i - seg.from))
	}
	e.mask.Or(segMask)
	runs := e.mask.NumRuns()
	e.cost = e.mask.Count() + runs*q.cfg.SubheaderBytes
	w.payloadUsed += e.cost - oldCost
	w.runs += runs - oldRuns
}

// FlushAll flushes every partition: the response to a system-scoped
// release operation such as a memory fence or kernel completion ("The
// entire remote write queue must be flushed upon receiving a system-scoped
// release operation").
func (q *Queue) FlushAll(cause FlushCause) {
	for _, dst := range q.sortedDsts() {
		q.FlushDst(dst, cause)
	}
}

// FlushDst flushes one destination's partition (all open windows, oldest
// first).
func (q *Queue) FlushDst(dst int, cause FlushCause) {
	p, ok := q.parts[dst]
	if !ok {
		return
	}
	for len(p.windows) > 0 {
		q.flushWindow(p, p.windows[0], cause)
	}
}

// LoadConflict handles a remote load: if the load's byte range overlaps any
// store queued for dst, queued data is flushed so same-address load-store
// ordering holds (§IV-B). With Config.LoadFlushEntryOnly, only the
// conflicting entries are flushed (as individual plain writes); otherwise
// the whole partition flushes, "just as a synchronization operation
// would". It reports whether a flush occurred.
func (q *Queue) LoadConflict(dst int, addr uint64, size int) bool {
	p, ok := q.parts[dst]
	if !ok || len(p.windows) == 0 {
		return false
	}
	conflicted := false
	for a := LineAddr(addr); a < addr+uint64(size); a += CacheLineBytes {
		for _, w := range p.windows {
			e, ok := w.entries[a]
			if !ok {
				continue
			}
			from := 0
			if addr > a {
				from = int(addr - a)
			}
			to := CacheLineBytes
			if end := addr + uint64(size); end < a+CacheLineBytes {
				to = int(end - a)
			}
			probe := MaskForRange(from, to)
			if e.mask.OverlapCount(probe) == 0 {
				continue
			}
			if q.cfg.LoadFlushEntryOnly {
				q.flushEntry(p, w, a, CauseLoadConflict)
				conflicted = true
				break // entry gone; next line
			}
			q.FlushDst(dst, CauseLoadConflict)
			return true
		}
	}
	return conflicted
}

// Atomic handles a remote atomic operation. By default atomics are never
// coalesced: a queued entry covering the same line is flushed first, then
// the atomic egresses as its own plain packet ("they are not coalesced and
// instead flush the previous entry with the same address"). With
// Config.CoalesceAtomics (the future-work direction of §IV-C, after
// reconfigurable atomic buffering [9]) the atomic enters the queue like a
// normal store.
func (q *Queue) Atomic(s Store) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if q.cfg.CoalesceAtomics {
		return q.Write(s)
	}
	p, ok := q.parts[s.Dst]
	if ok {
		for _, w := range p.windows {
			if _, hit := w.entries[LineAddr(s.Addr)]; hit {
				q.flushEntry(p, w, LineAddr(s.Addr), CauseAtomic)
				break
			}
		}
	}
	data := make([]byte, s.Size)
	for i := range data {
		data[i] = s.Byte(i)
	}
	pkt := NewPlainPacket(q.cfg, s.Dst, s.Addr, data)
	pkt.Cause = CauseAtomic
	q.stats.PlainPackets++
	q.accountWire(pkt)
	q.emit(pkt)
	return nil
}

// PendingStores returns the number of stores currently buffered for dst.
func (q *Queue) PendingStores(dst int) int {
	p, ok := q.parts[dst]
	if !ok {
		return 0
	}
	n := 0
	for _, w := range p.windows {
		n += w.stores
	}
	return n
}

// PendingStoresTotal returns the stores buffered across all destinations —
// the queue-occupancy figure sampled by the observability layer. The map
// range only accumulates an int, so the total is order-independent.
func (q *Queue) PendingStoresTotal() int {
	n := 0
	for _, p := range q.parts {
		for _, w := range p.windows {
			n += w.stores
		}
	}
	return n
}

// PendingBytes returns the enabled bytes currently buffered for dst.
func (q *Queue) PendingBytes(dst int) int {
	p, ok := q.parts[dst]
	if !ok {
		return 0
	}
	n := 0
	for _, w := range p.windows {
		for _, e := range w.entries {
			n += e.mask.Count()
		}
	}
	return n
}

// PendingDsts returns the destinations with buffered stores, ascending.
func (q *Queue) PendingDsts() []int {
	var dsts []int
	for _, d := range q.sortedDsts() {
		if q.PendingStores(d) > 0 {
			dsts = append(dsts, d)
		}
	}
	return dsts
}

// OpenWindows returns the number of open outer transactions for dst.
func (q *Queue) OpenWindows(dst int) int {
	if p, ok := q.parts[dst]; ok {
		return len(p.windows)
	}
	return 0
}

func (q *Queue) sortedDsts() []int {
	dsts := q.dstScratch[:0]
	for d := range q.parts {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	q.dstScratch = dsts
	return dsts
}

// flushEntry emits one line entry's runs as plain write TLPs and removes
// the entry, leaving the rest of the window buffered (the individual-flush
// path for load conflicts and atomics).
func (q *Queue) flushEntry(p *partition, w *window, line uint64, cause FlushCause) {
	e, ok := w.entries[line]
	if !ok {
		return
	}
	q.stats.Flushes[cause]++
	// Runs are copied to a local buffer before any emit: a 128B mask holds
	// at most 64 runs, and emit callbacks must be free to reenter the
	// queue without trampling shared scratch space.
	var runsBuf [CacheLineBytes / 2]Run
	for _, run := range e.mask.AppendRuns(runsBuf[:0]) {
		data := make([]byte, run.Len)
		copy(data, e.data[run.Start:run.Start+run.Len])
		pkt := NewPlainPacket(q.cfg, p.dst, e.line+uint64(run.Start), data)
		pkt.Cause = cause
		q.stats.PlainPackets++
		q.accountWire(pkt)
		q.emit(pkt)
	}
	w.payloadUsed -= e.cost
	w.runs -= e.mask.NumRuns()
	delete(w.entries, line)
	q.releaseEntry(e)
	p.entries--
	for i, l := range w.order {
		if l == line {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	// An emptied window closes.
	if len(w.entries) == 0 {
		q.removeWindow(p, w)
	}
}

// flushWindow packetizes and emits one window's contents, then closes it.
// Runs whose offset cannot be represented in the sub-header offset field
// (a line straddling the window end) fall back to plain TLPs.
func (q *Queue) flushWindow(p *partition, w *window, cause FlushCause) {
	q.stats.Flushes[cause]++

	// The window's accounting sizes everything up front: runs bounds the
	// sub-packets (fallback runs go to plain packets instead) and
	// payloadUsed less the sub-headers is exactly the enabled bytes, so
	// the packet, its Subs and one backing payload buffer are three
	// allocations whatever the run count. Sub-slices are capacity-capped
	// so no append through one can reach a neighbour. No emit happens
	// until extraction is done, so the shared run scratch cannot be
	// trampled by reentrant callbacks.
	pkt := &Packet{
		Dst:      p.dst,
		BaseAddr: w.base,
		Subs:     make([]SubPacket, 0, w.runs),
		Cause:    cause,
	}
	var fallbacks []*Packet
	buf := make([]byte, 0, w.payloadUsed-w.runs*q.cfg.SubheaderBytes)
	for _, line := range w.order {
		e := w.entries[line]
		q.runScratch = e.mask.AppendRuns(q.runScratch[:0])
		for _, run := range q.runScratch {
			absolute := e.line + uint64(run.Start)
			start := len(buf)
			buf = append(buf, e.data[run.Start:run.Start+run.Len]...)
			data := buf[start:len(buf):len(buf)]
			offset := absolute - w.base
			if offset >= q.cfg.AddressableRange() {
				fb := NewPlainPacket(q.cfg, p.dst, absolute, data)
				fb.Cause = cause
				fallbacks = append(fallbacks, fb) //finepack:allow hotalloc -- stays nil except for the rare line that straddles the window end
				continue
			}
			pkt.Subs = append(pkt.Subs, SubPacket{Offset: offset, Data: data})
		}
	}
	if len(pkt.Subs) > 0 {
		pkt.StoresMerged = w.stores
		pkt.finalize(q.cfg)
		q.stats.Packets++
		q.stats.StoresPerPacketSum += uint64(pkt.StoresMerged)
		q.stats.SubPackets += uint64(len(pkt.Subs))
		q.stats.SubheaderBytes += Bytes(pkt.SubheaderOverhead(q.cfg))
		q.accountWire(pkt)
		q.emit(pkt)
	}
	for _, fb := range fallbacks {
		q.stats.PlainPackets++
		q.accountWire(fb)
		q.emit(fb)
	}

	p.entries -= len(w.entries)
	q.removeWindow(p, w)
}

// removeWindow unlinks a window from its partition and recycles it.
func (q *Queue) removeWindow(p *partition, w *window) {
	for i, x := range p.windows {
		if x == w {
			p.windows = append(p.windows[:i], p.windows[i+1:]...)
			q.releaseWindow(w)
			return
		}
	}
}

// DumpState writes a human-readable snapshot of the queue's buffered
// contents (per destination: open windows, their entries and byte masks) —
// a debugging aid for queue-behavior investigations.
func (q *Queue) DumpState(w io.Writer) {
	for _, dst := range q.sortedDsts() {
		p := q.parts[dst]
		if len(p.windows) == 0 {
			continue
		}
		fmt.Fprintf(w, "dst %d: %d open window(s), %d entries\n",
			dst, len(p.windows), p.entries)
		for wi, win := range p.windows {
			fmt.Fprintf(w, "  window %d: base=%#x payload=%d/%d stores=%d\n",
				wi, win.base, win.payloadUsed, q.cfg.MaxPayload, win.stores)
			for _, line := range win.order {
				e := win.entries[line]
				fmt.Fprintf(w, "    line %#x: %d bytes in %d runs\n",
					line, e.mask.Count(), e.mask.NumRuns())
			}
		}
	}
}

func (q *Queue) accountWire(pkt *Packet) {
	q.stats.DataBytes += Bytes(pkt.DataBytes())
	q.stats.PayloadBytes += Bytes(pkt.PayloadBytes)
	q.stats.WireBytes += Bytes(pkt.WireBytes)
}
