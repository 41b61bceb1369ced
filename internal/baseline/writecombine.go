// Package baseline implements the comparator designs the paper evaluates
// FinePack against: a cacheline-granularity write-combining buffer (the
// "write combining alone" ablation of §VI-A and the transfer engine of the
// GPS-like model), a GPS-like publish-subscribe comparator (§VI-B), and the
// stateful config-packet alternative design (§VI-B "Alternate FinePack
// Designs"). Plain per-store P2P and bulk DMA need no machinery beyond the
// PCIe arithmetic and live directly in the system simulator.
package baseline

import (
	"fmt"
	"slices"

	"finepack/internal/core"
)

// WriteCombiner is a write-combining buffer: like FinePack's remote write
// queue it merges same-line stores per destination, isolating the
// *coalescing* benefit from FinePack's *repacketization* benefit (§VI-A
// quotes FinePack at 24% less data on the wire than "write combining
// alone"). At flush, each maximal run of enabled bytes egresses as its own
// plain PCIe write TLP — coalesced, but paying a full transaction header
// per run.
//
// With FullLine set, flushes instead emit whole 128B lines regardless of
// which bytes are enabled: the cacheline-granularity combining GPS uses
// ("because it performs coalescing at the cacheline granularity, it cannot
// achieve good coalescing for highly divergent stores").
type WriteCombiner struct {
	tlp     core.Config
	entries int
	parts   map[int]*wcPartition
	lines   map[wcKey]*wcLine // every partition's buffered lines
	emit    func(*core.Packet)
	stats   WCStats
	slab    core.PacketSlab // emitted packets and their bytes

	// FullLine selects whole-cacheline flushes (the GPS transfer scheme).
	FullLine bool
}

// wcPartition is one destination's share of the buffer: the line
// addresses it holds, in arrival order.
type wcPartition struct {
	order []uint64
}

// wcKey names one destination's buffered line.
type wcKey struct {
	dst  int
	line uint64
}

type wcLine struct {
	data [core.CacheLineBytes]byte
	mask core.ByteMask
}

// WCStats aggregates write-combiner traffic counters.
type WCStats struct {
	// StoresIn and BytesIn count arriving stores.
	StoresIn, BytesIn uint64
	// BytesOverwritten counts same-byte rewrites absorbed by the buffer.
	BytesOverwritten uint64
	// Packets and WireBytes count emitted full-line TLPs.
	Packets, WireBytes uint64
	// DataBytes counts payload bytes on the wire (always 128 per packet:
	// the whole line goes out, enabled or not).
	DataBytes uint64
	// EnabledBytes counts the dirty bytes within emitted lines; the
	// difference DataBytes−EnabledBytes is intra-line over-transfer.
	EnabledBytes uint64
}

// NewWriteCombiner builds a combiner with the given per-destination entry
// budget (matching FinePack's 64 for a fair ablation). Emitted packets go
// to emit; nil discards.
func NewWriteCombiner(cfg core.Config, emit func(*core.Packet)) (*WriteCombiner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		emit = func(*core.Packet) {}
	}
	return &WriteCombiner{
		tlp:     cfg,
		entries: cfg.QueueEntries,
		parts:   make(map[int]*wcPartition),
		lines:   make(map[wcKey]*wcLine),
		emit:    emit,
	}, nil
}

// Stats returns a snapshot of the counters.
func (w *WriteCombiner) Stats() WCStats { return w.stats }

// Write buffers one remote store, combining at line granularity.
func (w *WriteCombiner) Write(s core.Store) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Size > core.CacheLineBytes {
		return &lineSizeError{size: s.Size}
	}
	w.stats.StoresIn++
	w.stats.BytesIn += uint64(s.Size)
	p, ok := w.parts[s.Dst]
	if !ok {
		p = &wcPartition{}
		w.parts[s.Dst] = p
	}
	remaining := s.Size
	addr := s.Addr
	dataOff := 0
	for remaining > 0 {
		la := core.LineAddr(addr)
		from := int(addr - la)
		n := core.CacheLineBytes - from
		if n > remaining {
			n = remaining
		}
		k := wcKey{s.Dst, la}
		l, ok := w.lines[k]
		if !ok {
			if len(p.order) >= w.entries {
				w.flushPartition(s.Dst, p)
			}
			l = &wcLine{}
			w.lines[k] = l
			p.order = append(p.order, la)
		}
		seg := core.MaskForRange(from, from+n)
		w.stats.BytesOverwritten += uint64(l.mask.OverlapCount(seg))
		for i := 0; i < n; i++ {
			l.data[from+i] = s.Byte(dataOff + i)
		}
		l.mask.Or(seg)
		addr += uint64(n)
		dataOff += n
		remaining -= n
	}
	return nil
}

// lineSizeError reports a store wider than one cache line, which the L1
// would have split. It formats its message only when read.
type lineSizeError struct {
	size int
}

func (e *lineSizeError) Error() string {
	return fmt.Sprintf("baseline: store of %dB exceeds one cache line", e.size)
}

// FlushAll drains every destination (the release-operation path).
func (w *WriteCombiner) FlushAll() {
	dsts := make([]int, 0, len(w.parts))
	for d := range w.parts {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	for _, d := range dsts {
		w.flushPartition(d, w.parts[d])
	}
}

// flushPartition emits the partition's dirty data as plain TLPs: one per
// enabled-byte run, or one full line per entry in FullLine mode.
func (w *WriteCombiner) flushPartition(dst int, p *wcPartition) {
	for _, la := range p.order {
		k := wcKey{dst, la}
		l := w.lines[k]
		delete(w.lines, k)
		w.stats.EnabledBytes += uint64(l.mask.Count())
		if w.FullLine {
			data := w.slab.Bytes(core.CacheLineBytes)
			copy(data, l.data[:])
			w.emitPlain(dst, la, data)
			continue
		}
		for _, run := range l.mask.Runs() {
			data := w.slab.Bytes(run.Len)
			copy(data, l.data[run.Start:run.Start+run.Len])
			w.emitPlain(dst, la+uint64(run.Start), data)
		}
	}
	p.order = p.order[:0]
}

func (w *WriteCombiner) emitPlain(dst int, addr uint64, data []byte) {
	pkt := w.slab.Plain(w.tlp, dst, addr, data)
	w.stats.Packets++
	w.stats.WireBytes += uint64(pkt.WireBytes)
	w.stats.DataBytes += uint64(pkt.PayloadBytes)
	w.emit(pkt)
}
