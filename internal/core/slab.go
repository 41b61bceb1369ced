package core

import "unsafe"

// PacketSlab carves one producer's plain packets and their payload bytes
// out of chunks shared across packets, so a plain packet costs a fraction
// of an allocation instead of two (its header and its byte copy).
//
// A slab is a bump allocator, not a pool: it never takes anything back.
// A chunk stays alive while any packet or payload carved from it does, and
// the GC frees it once the last one is dropped. So a slab holds at most
// its current chunks past delivery, where a pool would keep a run's whole
// in-flight peak for the rest of the run.
//
// Chunks are kept small because one live packet pins its whole chunk: on
// a multi-hop route, one slow packet would otherwise keep thousands of
// delivered neighbours alive. Each chunk size is a Go size class, and a
// header chunk holds as many packets as fit, so a chunk wastes less than
// one element.
//
// The zero value is ready to use. A PacketSlab is not safe for concurrent
// use; like the producer that owns it, it runs on one simulation thread.
type PacketSlab struct {
	hdrs     []plainPacket // unused tail of the current header chunk
	hdrBytes int           // size of the current header chunk
	buf      []byte        // unused tail of the current payload chunk
	bufBytes int           // size of the current payload chunk
}

// Chunk sizes in bytes. Each chunk doubles its predecessor's size up to
// the maximum: header chunks go 2 → 4 → 8 KiB, payload chunks 512 B →
// 1 KiB. A payload larger than the largest payload chunk gets a chunk of
// its own size.
const (
	headerChunkMin  = 2 << 10
	headerChunkMax  = 8 << 10
	payloadChunkMin = 512
	payloadChunkMax = 1 << 10

	plainPacketSize = int(unsafe.Sizeof(plainPacket{}))
)

// Plain is NewPlainPacket with the packet carved from the slab.
func (s *PacketSlab) Plain(cfg Config, dst int, addr uint64, data []byte) *Packet {
	if len(s.hdrs) == 0 {
		s.hdrBytes = nextChunk(s.hdrBytes, headerChunkMin, headerChunkMax)
		s.hdrs = make([]plainPacket, s.hdrBytes/plainPacketSize)
	}
	pp := &s.hdrs[0]
	s.hdrs = s.hdrs[1:]
	return pp.init(cfg, dst, addr, data)
}

// Bytes returns n zeroed bytes carved from the slab. The slice's capacity
// is n, so an append through it reallocates instead of reaching the next
// payload.
func (s *PacketSlab) Bytes(n int) []byte {
	if n > len(s.buf) {
		if n > payloadChunkMax {
			return make([]byte, n)
		}
		s.bufBytes = nextChunk(s.bufBytes, payloadChunkMin, payloadChunkMax)
		if n > s.bufBytes {
			s.bufBytes = payloadChunkMax
		}
		s.buf = make([]byte, s.bufBytes)
	}
	b := s.buf[:n:n]
	s.buf = s.buf[n:]
	return b
}

// nextChunk returns the size of the chunk after one of cur bytes: lo
// first, then doubling up to hi.
func nextChunk(cur, lo, hi int) int {
	if cur == 0 {
		return lo
	}
	return min(2*cur, hi)
}
