package core

import (
	"bytes"
	"testing"
)

// FuzzDecodePacket drives the wire decoder with arbitrary bytes: it must
// reject or produce a packet that validates and re-encodes, never panic.
func FuzzDecodePacket(f *testing.F) {
	cfg := DefaultConfig()
	// Seed with valid encodings of both packet kinds.
	plain, err := EncodePacket(cfg, NewPlainPacket(cfg, 1, 0x1003, []byte{1, 2, 3, 4, 5}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	fp := &Packet{Dst: 2, BaseAddr: 0, Subs: []SubPacket{
		{Offset: 0, Data: []byte{9}},
		{Offset: 500, Data: bytes.Repeat([]byte{7}, 64)},
	}}
	fp.finalize(cfg)
	wire, err := EncodePacket(cfg, fp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodePacket(cfg, raw)
		if err != nil {
			return
		}
		if err := ValidatePacket(cfg, p); err != nil {
			t.Fatalf("decoded invalid packet: %v", err)
		}
		// A decoded packet must survive a re-encode/re-decode cycle
		// with identical content.
		rewire, err := EncodePacket(cfg, p)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		q, err := DecodePacket(cfg, rewire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q.BaseAddr != p.BaseAddr || q.Plain != p.Plain || len(q.Subs) != len(p.Subs) {
			t.Fatalf("re-decode drifted: %+v vs %+v", q, p)
		}
		for i := range p.Subs {
			if q.Subs[i].Offset != p.Subs[i].Offset ||
				!bytes.Equal(q.Subs[i].Data, p.Subs[i].Data) {
				t.Fatalf("sub %d drifted", i)
			}
		}
	})
}

// FuzzQueueWrite feeds arbitrary store, atomic and remote-load parameters
// through the queue and checks the byte-accuracy invariant against a
// reference memory, and the windows' running accounting after every
// operation and flush.
func FuzzQueueWrite(f *testing.F) {
	// Two stores, then 50 overwrites of one address. Each 4th byte keeps
	// its destination and decodes to a write.
	f.Add(int64(1), []byte{1, 2, 3, 4, 5, 6, 7, 2})
	f.Add(int64(-9), bytes.Repeat([]byte{0xA5, 0xA5, 0xA5, 0x00}, 50))
	// Two lines in one window, then an atomic and (entry-only) a remote
	// load that each flush one line and leave the window open.
	f.Add(int64(2), []byte{0, 0, 7, 0, 0, 1, 7, 0, 0, 2, 7, 0, 0, 0, 3, 6})
	f.Add(int64(3), []byte{0, 0, 7, 0, 0, 1, 7, 0, 0, 2, 7, 0, 0, 0, 3, 9})

	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		cfg := DefaultConfig()
		cfg.SubheaderBytes = 2 + int(uint64(seed)%5)
		cfg.QueueEntries = 4
		cfg.MaxPayload = 512
		cfg.LoadFlushEntryOnly = seed&1 != 0
		if cfg.Validate() != nil {
			return
		}
		reference := make(map[uint64]byte)
		actual := make(map[uint64]byte)
		q, err := NewQueue(cfg, func(p *Packet) {
			if err := ValidatePacket(cfg, p); err != nil {
				t.Fatalf("invalid packet: %v", err)
			}
			for _, s := range Depacketize(p) {
				applyStore(actual, s)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Interpret the fuzz input as an operation script: 4 bytes per
		// operation (addr lo/hi, size, dst + 3×kind). Kinds 0 and 1 write
		// a store, 2 issues an atomic (at most 8 aligned bytes, so it never
		// straddles a line), 3 a remote load.
		for i := 0; i+4 <= len(script); i += 4 {
			addr := uint64(script[i]) | uint64(script[i+1])<<8
			size := int(script[i+2])%CacheLineBytes + 1
			s := Store{Dst: int(script[i+3]) % 3, Addr: addr, Size: size}
			switch script[i+3] / 3 % 4 {
			case 2:
				s.Addr &^= 7
				s.Size = size%8 + 1
				applyStore(reference, s)
				err = q.Atomic(s)
			case 3:
				q.LoadConflict(s.Dst, s.Addr, s.Size)
			default:
				applyStore(reference, s)
				err = q.Write(s)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkQueueAccounting(t, q)
		}
		q.FlushAll(CauseRelease)
		checkQueueAccounting(t, q)
		if len(reference) != len(actual) {
			t.Fatalf("byte sets differ: %d vs %d", len(reference), len(actual))
		}
		for a, v := range reference {
			if actual[a] != v {
				t.Fatalf("byte %#x = %d, want %d", a, actual[a], v)
			}
		}
	})
}

// checkQueueAccounting recomputes every open window's payload and run
// totals, and each partition's entry count, from the entries' byte masks.
func checkQueueAccounting(t *testing.T, q *Queue) {
	t.Helper()
	for dst, p := range q.parts {
		entries := 0
		for _, w := range p.windows {
			runs, used := 0, 0
			for line, e := range w.entries {
				n := e.mask.NumRuns()
				if e.cost != e.mask.Count()+n*q.cfg.SubheaderBytes {
					t.Fatalf("dst %d line %#x: cost %d, mask has %d runs of %d bytes",
						dst, line, e.cost, n, e.mask.Count())
				}
				runs += n
				used += e.cost
			}
			if w.runs != runs || w.payloadUsed != used {
				t.Fatalf("dst %d window %#x: runs %d payloadUsed %d, entries sum to %d and %d",
					dst, w.base, w.runs, w.payloadUsed, runs, used)
			}
			entries += len(w.entries)
		}
		if p.entries != entries {
			t.Fatalf("dst %d: partition counts %d entries, windows hold %d", dst, p.entries, entries)
		}
	}
}
