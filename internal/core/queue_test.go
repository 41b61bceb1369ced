package core

import (
	"testing"
)

// collect builds a queue whose emitted packets are appended to the returned
// slice.
func collect(t *testing.T, cfg Config) (*Queue, *[]*Packet) {
	t.Helper()
	var pkts []*Packet
	q, err := NewQueue(cfg, func(p *Packet) { pkts = append(pkts, p) })
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q, &pkts
}

func mustWrite(t *testing.T, q *Queue, s Store) {
	t.Helper()
	if err := q.Write(s); err != nil {
		t.Fatalf("Write(%+v): %v", s, err)
	}
}

func TestSingleStoreFlush(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 1, Addr: 0x1000, Size: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if len(*pkts) != 0 {
		t.Fatal("store should be buffered, not emitted")
	}
	if q.PendingStores(1) != 1 || q.PendingBytes(1) != 8 {
		t.Fatalf("pending = %d stores / %d bytes", q.PendingStores(1), q.PendingBytes(1))
	}
	q.FlushAll(CauseRelease)
	if len(*pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(*pkts))
	}
	p := (*pkts)[0]
	if p.Plain {
		t.Fatal("should be a FinePack packet")
	}
	if len(p.Subs) != 1 || len(p.Subs[0].Data) != 8 {
		t.Fatalf("subs = %+v", p.Subs)
	}
	if p.BaseAddr+p.Subs[0].Offset != 0x1000 {
		t.Fatalf("reconstructed addr = %#x, want 0x1000", p.BaseAddr+p.Subs[0].Offset)
	}
	if p.StoresMerged != 1 || p.Cause != CauseRelease {
		t.Fatalf("merged=%d cause=%v", p.StoresMerged, p.Cause)
	}
	if err := ValidatePacket(q.Config(), p); err != nil {
		t.Fatal(err)
	}
	if q.PendingStores(1) != 0 {
		t.Fatal("partition not reset after flush")
	}
}

func TestSameAddressCoalescing(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	// Three stores to the same 4 bytes: only the last value egresses.
	for _, v := range []byte{0xAA, 0xBB, 0xCC} {
		mustWrite(t, q, Store{Dst: 1, Addr: 0x2000, Size: 4, Data: []byte{v, v, v, v}})
	}
	q.FlushAll(CauseRelease)
	if len(*pkts) != 1 {
		t.Fatalf("packets = %d, want 1", len(*pkts))
	}
	p := (*pkts)[0]
	if len(p.Subs) != 1 || len(p.Subs[0].Data) != 4 {
		t.Fatalf("coalesced subs = %+v", p.Subs)
	}
	for _, b := range p.Subs[0].Data {
		if b != 0xCC {
			t.Fatalf("stale data on wire: % x", p.Subs[0].Data)
		}
	}
	st := q.Stats()
	if st.BytesOverwritten != 8 {
		t.Fatalf("BytesOverwritten = %d, want 8 (two 4B overwrites)", st.BytesOverwritten)
	}
	if p.StoresMerged != 3 {
		t.Fatalf("StoresMerged = %d, want 3", p.StoresMerged)
	}
	// Wire carries 4 data bytes, not 12.
	if st.DataBytes != 4 {
		t.Fatalf("DataBytes = %d, want 4", st.DataBytes)
	}
}

func TestAdjacentStoresMergeIntoOneSubPacket(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	// Four adjacent 8B stores form one contiguous 32B run → one sub-packet.
	for i := 0; i < 4; i++ {
		mustWrite(t, q, Store{Dst: 2, Addr: 0x3000 + uint64(8*i), Size: 8})
	}
	q.FlushAll(CauseRelease)
	p := (*pkts)[0]
	if len(p.Subs) != 1 || len(p.Subs[0].Data) != 32 {
		t.Fatalf("adjacent merge: subs = %d, first len %d", len(p.Subs), len(p.Subs[0].Data))
	}
}

func TestDisjointStoresBecomeSeparateSubPackets(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 0, Addr: 0x4000, Size: 8})
	mustWrite(t, q, Store{Dst: 0, Addr: 0x4000 + 64, Size: 8})  // gap within line
	mustWrite(t, q, Store{Dst: 0, Addr: 0x4000 + 512, Size: 8}) // different line
	q.FlushAll(CauseRelease)
	p := (*pkts)[0]
	if len(p.Subs) != 3 {
		t.Fatalf("subs = %d, want 3", len(p.Subs))
	}
}

func TestWindowMissFlushes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubheaderBytes = 2 // 64B windows force frequent misses
	q, pkts := collect(t, cfg)
	mustWrite(t, q, Store{Dst: 1, Addr: 0, Size: 8})
	mustWrite(t, q, Store{Dst: 1, Addr: 64, Size: 8}) // outside the 64B window
	if len(*pkts) != 1 {
		t.Fatalf("window miss should flush: packets = %d", len(*pkts))
	}
	if (*pkts)[0].Cause != CauseWindowMiss {
		t.Fatalf("cause = %v, want window-miss", (*pkts)[0].Cause)
	}
	// The second store now owns a fresh window.
	q.FlushAll(CauseRelease)
	if len(*pkts) != 2 {
		t.Fatalf("packets = %d, want 2", len(*pkts))
	}
	if got := (*pkts)[1].BaseAddr; got != 64 {
		t.Fatalf("new window base = %d, want 64", got)
	}
}

func TestPayloadFullFlushes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPayload = 256 // tiny payload: a couple of lines fill it
	cfg.QueueEntries = 64
	q, pkts := collect(t, cfg)
	// Each full line costs 128 + 5 = 133B; the second line would exceed
	// 256 → flush on the third write's line... compute: after one line
	// payloadUsed=133; next full line worst-case 133 more = 266 > 256.
	mustWrite(t, q, Store{Dst: 1, Addr: 0, Size: 128})
	mustWrite(t, q, Store{Dst: 1, Addr: 128, Size: 128})
	if len(*pkts) != 1 {
		t.Fatalf("payload overflow should flush: packets = %d", len(*pkts))
	}
	if (*pkts)[0].Cause != CausePayloadFull {
		t.Fatalf("cause = %v, want payload-full", (*pkts)[0].Cause)
	}
}

func TestEntriesFullFlushes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueEntries = 2
	q, pkts := collect(t, cfg)
	// Three sparse 4B stores to distinct lines exhaust 2 entries.
	mustWrite(t, q, Store{Dst: 1, Addr: 0, Size: 4})
	mustWrite(t, q, Store{Dst: 1, Addr: 128, Size: 4})
	mustWrite(t, q, Store{Dst: 1, Addr: 256, Size: 4})
	if len(*pkts) != 1 {
		t.Fatalf("entry exhaustion should flush: packets = %d", len(*pkts))
	}
	if (*pkts)[0].Cause != CauseEntriesFull {
		t.Fatalf("cause = %v, want entries-full", (*pkts)[0].Cause)
	}
}

func TestPartitionsIndependentPerDestination(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 1, Addr: 0x1000, Size: 8})
	mustWrite(t, q, Store{Dst: 2, Addr: 0x9000_0000_0000, Size: 8}) // far window, other dst
	if len(*pkts) != 0 {
		t.Fatal("distinct destinations must not interfere")
	}
	q.FlushDst(1, CauseRelease)
	if len(*pkts) != 1 || (*pkts)[0].Dst != 1 {
		t.Fatalf("FlushDst(1) emitted %+v", *pkts)
	}
	if q.PendingStores(2) != 1 {
		t.Fatal("dst 2 partition should be untouched")
	}
	q.FlushAll(CauseRelease)
	if len(*pkts) != 2 || (*pkts)[1].Dst != 2 {
		t.Fatalf("FlushAll missed dst 2: %+v", *pkts)
	}
}

func TestStoreSpanningLineBoundary(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	mustWrite(t, q, Store{Dst: 1, Addr: 120, Size: 16, Data: data})
	q.FlushAll(CauseRelease)
	p := (*pkts)[0]
	// Two lines → two runs → two sub-packets, but contiguous bytes.
	if len(p.Subs) != 2 {
		t.Fatalf("subs = %d, want 2 (one per line)", len(p.Subs))
	}
	var rebuilt []byte
	for _, s := range p.Subs {
		rebuilt = append(rebuilt, s.Data...)
	}
	if len(rebuilt) != 16 {
		t.Fatalf("rebuilt %d bytes, want 16", len(rebuilt))
	}
	for i, b := range rebuilt {
		if b != byte(i+1) {
			t.Fatalf("rebuilt[%d] = %d, want %d", i, b, i+1)
		}
	}
}

func TestLoadConflictFlush(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 1, Addr: 0x5000, Size: 8})
	// A load to a different range does not flush.
	if q.LoadConflict(1, 0x6000, 8) {
		t.Fatal("non-overlapping load should not flush")
	}
	if len(*pkts) != 0 {
		t.Fatal("no packet expected")
	}
	// Overlapping load flushes the partition.
	if !q.LoadConflict(1, 0x5004, 8) {
		t.Fatal("overlapping load must flush")
	}
	if len(*pkts) != 1 || (*pkts)[0].Cause != CauseLoadConflict {
		t.Fatalf("pkts = %+v", *pkts)
	}
	// Load to a destination with no partition is a no-op.
	if q.LoadConflict(7, 0x5000, 8) {
		t.Fatal("unknown destination should not flush")
	}
}

func TestLoadConflictSameLineDifferentBytes(t *testing.T) {
	q, _ := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 1, Addr: 0x5000, Size: 4})
	// Same 128B line but disjoint bytes: byte-accurate check must not flush.
	if q.LoadConflict(1, 0x5040, 4) {
		t.Fatal("disjoint bytes in same line should not conflict")
	}
}

func TestAtomicFlushesMatchingLineAndEgressesPlain(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 1, Addr: 0x7000, Size: 8})
	if err := q.Atomic(Store{Dst: 1, Addr: 0x7000, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if len(*pkts) != 2 {
		t.Fatalf("packets = %d, want entry flush + atomic", len(*pkts))
	}
	// "flush the previous entry with the same address": the queued entry
	// egresses first (as a plain write), then the atomic itself.
	if (*pkts)[0].Cause != CauseAtomic || !(*pkts)[0].Plain {
		t.Fatalf("first packet should be the flushed entry: %+v", (*pkts)[0])
	}
	if (*pkts)[0].BaseAddr != 0x7000 || (*pkts)[0].PayloadBytes != 8 {
		t.Fatalf("flushed entry = %+v", (*pkts)[0])
	}
	if !(*pkts)[1].Plain {
		t.Fatal("atomic must egress as a plain packet")
	}
	// An atomic to an unbuffered line does not flush anything else.
	mustWrite(t, q, Store{Dst: 1, Addr: 0x8000, Size: 8})
	if err := q.Atomic(Store{Dst: 1, Addr: 0xF000, Size: 4}); err != nil {
		t.Fatal(err)
	}
	if len(*pkts) != 3 {
		t.Fatalf("packets = %d, want 3 (atomic only)", len(*pkts))
	}
	if q.PendingStores(1) != 1 {
		t.Fatal("non-matching atomic should leave the partition buffered")
	}
}

func TestFallbackWhenLineStraddlesWindowEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubheaderBytes = 2 // 64B windows: a 128B line always straddles
	q, pkts := collect(t, cfg)
	// Store starts in the window [64,128) but extends into [128, ...):
	// the second line's run offset (≥64) cannot be encoded in 6 bits.
	mustWrite(t, q, Store{Dst: 1, Addr: 126, Size: 8})
	q.FlushAll(CauseRelease)
	var plain, fine int
	for _, p := range *pkts {
		if err := ValidatePacket(cfg, p); err != nil {
			t.Fatalf("invalid packet: %v", err)
		}
		if p.Plain {
			plain++
		} else {
			fine++
		}
	}
	if plain != 1 || fine != 1 {
		t.Fatalf("plain=%d fine=%d, want 1 fallback + 1 FinePack", plain, fine)
	}
	if q.Stats().PlainPackets != 1 {
		t.Fatalf("PlainPackets = %d", q.Stats().PlainPackets)
	}
}

func TestEmittedPacketsAlwaysValid(t *testing.T) {
	for _, shb := range []int{2, 3, 4, 5, 6} {
		cfg := DefaultConfig()
		cfg.SubheaderBytes = shb
		var all []*Packet
		q, err := NewQueue(cfg, func(p *Packet) { all = append(all, p) })
		if err != nil {
			t.Fatal(err)
		}
		// A pseudo-random walk of stores.
		addr := uint64(0x1234)
		for i := 0; i < 5000; i++ {
			addr = addr*6364136223846793005 + 1442695040888963407
			a := addr % (1 << 22)
			size := 1 + int(addr>>32)%128
			if err := q.Write(Store{Dst: int(addr>>40) % 3, Addr: a, Size: size}); err != nil {
				t.Fatal(err)
			}
		}
		q.FlushAll(CauseDrain)
		if len(all) == 0 {
			t.Fatal("no packets emitted")
		}
		for _, p := range all {
			if err := ValidatePacket(cfg, p); err != nil {
				t.Fatalf("subheader %d: %v", shb, err)
			}
			if p.WireBytes <= 0 || p.PayloadBytes > cfg.MaxPayload {
				t.Fatalf("subheader %d: bad accounting %+v", shb, p)
			}
		}
	}
}

func TestRejectOversizeStore(t *testing.T) {
	q, _ := collect(t, DefaultConfig())
	if err := q.Write(Store{Dst: 0, Addr: 0, Size: 129}); err == nil {
		t.Fatal("stores larger than a cache line must be rejected")
	}
	if err := q.Write(Store{Dst: 0, Addr: 0, Size: 0}); err == nil {
		t.Fatal("zero-size store must be rejected")
	}
}

func TestFlushEmptyPartitionsIsNoop(t *testing.T) {
	q, pkts := collect(t, DefaultConfig())
	q.FlushAll(CauseRelease)
	q.FlushDst(3, CauseRelease)
	if len(*pkts) != 0 {
		t.Fatal("flushing empty queue emitted packets")
	}
	st := q.Stats()
	if st.Flushes[CauseRelease] != 0 {
		t.Fatal("empty flush should not count")
	}
}

func TestStatsAccounting(t *testing.T) {
	q, _ := collect(t, DefaultConfig())
	mustWrite(t, q, Store{Dst: 1, Addr: 0, Size: 16})
	mustWrite(t, q, Store{Dst: 1, Addr: 64, Size: 16})
	q.FlushAll(CauseRelease)
	st := q.Stats()
	if st.StoresIn != 2 || st.BytesIn != 32 {
		t.Fatalf("in: %d stores %d bytes", st.StoresIn, st.BytesIn)
	}
	if st.Packets != 1 || st.SubPackets != 2 {
		t.Fatalf("out: %d packets %d subs", st.Packets, st.SubPackets)
	}
	cfg := q.Config()
	wantPayload := 32 + 2*cfg.SubheaderBytes
	if st.PayloadBytes != Bytes(wantPayload) {
		t.Fatalf("payload = %d, want %d", st.PayloadBytes, wantPayload)
	}
	if st.SubheaderBytes != Bytes(2*cfg.SubheaderBytes) {
		t.Fatalf("subheaders = %d", st.SubheaderBytes)
	}
	if st.WireBytes != Bytes(cfg.TLP.WireBytes(wantPayload)) {
		t.Fatalf("wire = %d", st.WireBytes)
	}
	if st.AvgStoresPerPacket() != 2 {
		t.Fatalf("avg stores/packet = %v", st.AvgStoresPerPacket())
	}
	if st.Flushes[CauseRelease] != 1 {
		t.Fatalf("flush count = %d", st.Flushes[CauseRelease])
	}
}

func TestAvgStoresPerPacketEmpty(t *testing.T) {
	var st QueueStats
	if st.AvgStoresPerPacket() != 0 {
		t.Fatal("empty stats should average 0")
	}
}

func TestNewQueueRejectsInvalidConfig(t *testing.T) {
	if _, err := NewQueue(Config{}, nil); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestNilEmitDiscards(t *testing.T) {
	q, err := NewQueue(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, q, Store{Dst: 1, Addr: 0, Size: 8})
	q.FlushAll(CauseRelease)
	if q.Stats().Packets != 1 {
		t.Fatal("stats should accumulate even without an emit callback")
	}
}

// TestFlushWindowAllocsIndependentOfRuns: a flush sizes its packet from the
// window's own accounting, so a 60-run window costs no more allocations
// than a 1-run one.
func TestFlushWindowAllocsIndependentOfRuns(t *testing.T) {
	flushAllocs := func(runs int) float64 {
		q, err := NewQueue(DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			for i := 0; i < runs; i++ {
				// Two 1-byte runs per line, at bytes 0 and 2.
				mustWrite(t, q, Store{Dst: 1, Addr: uint64(i/2)*CacheLineBytes + uint64(i%2)*2, Size: 1})
			}
			q.FlushAll(CauseRelease)
		})
	}
	if one, sixty := flushAllocs(1), flushAllocs(60); one != sixty {
		t.Fatalf("flush allocates %.1f objects for 1 run, %.1f for 60", one, sixty)
	}
}

var packetSink *Packet

func TestNewPlainPacketIsOneAllocation(t *testing.T) {
	cfg := DefaultConfig()
	data := []byte{1, 2, 3, 4}
	if n := testing.AllocsPerRun(100, func() {
		packetSink = NewPlainPacket(cfg, 1, 0x40, data)
	}); n != 1 {
		t.Fatalf("NewPlainPacket allocates %.1f objects, want 1", n)
	}
}
