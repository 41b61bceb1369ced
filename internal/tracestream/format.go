// Package tracestream implements the chunked binary trace format v2 and
// the generator-driven trace sources built on it: a compact, seekable,
// CRC32-checksummed on-disk encoding that reads and writes with O(window)
// memory, plus Eidola-style statistical trace synthesis. It is the only
// on-disk trace encoding. Together they lift the workload-size cap of a
// fully materialized trace.Trace: a billion-store trace streams through
// the simulator one iteration window at a time, and traffic can be
// *described* by a small JSON profile instead of shipped verbatim.
//
// # File layout
//
// A v2 file is a sequence of length-prefixed chunks followed by a fixed
// trailer, reusing the framing discipline of internal/store's WAL:
//
//	chunk   = u32 LE payload length | u32 LE CRC32 (IEEE) of payload | payload
//	payload = 1 type byte | body
//	file    = header chunk 'H' | iteration chunks 'I'... | index chunk 'X' | trailer
//	trailer = "FPS2" | u64 LE index-chunk file offset | u32 LE CRC32 of the previous 12 bytes
//
// The header body is a small JSON document carrying workload metadata
// (name, system size, the single-GPU baseline). Each iteration chunk
// holds one iteration's delta-encoded store stream — addresses are
// zigzag-varint deltas that reset at every chunk boundary, so chunks
// decode independently. The index chunk maps iteration number to file
// offset (plus per-iteration store counts), and the trailer points at the
// index: a reader seeks to any iteration in O(1) with three reads
// (trailer, index, chunk) and never holds more than one chunk in memory.
//
// A reader that hits a frame whose length runs past the file, whose
// checksum disagrees, or whose trailer is torn reports a corruption
// error; it never panics and never allocates beyond the declared-and-
// verified chunk size.
package tracestream

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	// chunkHeaderLen is the framed-chunk prefix: u32 length + u32 CRC.
	chunkHeaderLen = 8
	// maxChunkLen bounds a single chunk so a corrupt length prefix cannot
	// drive a multi-gigabyte allocation: one iteration window must fit.
	maxChunkLen = 1 << 28
	// trailerLen is the fixed file trailer: 4-byte magic, u64 index
	// offset, u32 CRC of the previous 12 bytes.
	trailerLen = 16
	// formatVersion is the on-disk format generation.
	formatVersion = 2
)

// Chunk type bytes.
const (
	chunkHeader    = 'H'
	chunkIteration = 'I'
	chunkIndex     = 'X'
)

// trailerMagic marks the last 16 bytes of a v2 file.
var trailerMagic = [4]byte{'F', 'P', 'S', '2'}

// Decode error sentinels. The chunk-scan and store-decode paths are
// //finepack:hotpath and therefore build no formatted errors; outer
// layers wrap these with context.
var (
	// ErrNotStream reports that the input is not a v2 stream at all
	// (no header chunk at offset 0, or another format version) — for
	// instance a trace in the retired v1 gob encoding. There is no other
	// format to fall back to: callers reject the input.
	ErrNotStream = errors.New("tracestream: not a v2 trace stream")
	// ErrCorrupt reports a structurally broken file: bad CRC, torn chunk,
	// truncated trailer, or an impossible field value.
	ErrCorrupt = errors.New("tracestream: corrupt trace stream")
	// ErrTruncated reports a chunk or trailer that runs past the end of
	// the file — the torn tail of an interrupted write.
	ErrTruncated = errors.New("tracestream: truncated trace stream")
)

// appendChunk frames payload (type byte already included) onto buf.
func appendChunk(buf, payload []byte) []byte {
	var hdr [chunkHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// parseChunkHeader reads a chunk prefix and returns the payload length,
// validating it against the limit and the remaining file size.
//
//finepack:hotpath chunk framing, once per streamed iteration window
func parseChunkHeader(hdr []byte, remaining int64) (n int, sum uint32, err error) {
	if len(hdr) < chunkHeaderLen {
		return 0, 0, ErrTruncated
	}
	n = int(binary.LittleEndian.Uint32(hdr[0:4]))
	sum = binary.LittleEndian.Uint32(hdr[4:8])
	if n < 1 || n > maxChunkLen {
		return 0, 0, ErrCorrupt
	}
	if int64(n) > remaining-chunkHeaderLen {
		return 0, 0, ErrTruncated
	}
	return n, sum, nil
}

// verifyChunk checks a payload against its frame checksum.
//
//finepack:hotpath chunk verify, once per streamed iteration window
func verifyChunk(payload []byte, sum uint32) error {
	if crc32.ChecksumIEEE(payload) != sum {
		return ErrCorrupt
	}
	return nil
}

// header is the JSON body of the 'H' chunk. The iteration count lives in
// the index, not here: a streaming writer does not know it up front.
type header struct {
	Format              int     `json:"format"`
	Name                string  `json:"name"`
	NumGPUs             int     `json:"gpus"`
	SingleGPUOpsPerIter float64 `json:"single_gpu_ops_per_iter"`
}

// maxHeaderGPUs bounds the header's declared system size before any
// per-GPU allocation happens.
const maxHeaderGPUs = 4096

// maxIterations bounds the index's declared iteration count; at 2^26
// iterations even one chunk header per iteration outweighs any plausible
// experiment.
const maxIterations = 1 << 26

// uvarint decodes an unsigned varint from b at off, returning the value
// and the new offset; ok is false on overflow or truncation.
//
//finepack:hotpath varint decode, several times per store in a streamed replay
func uvarint(b []byte, off int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// varint decodes a signed (zigzag) varint from b at off.
//
//finepack:hotpath varint decode, several times per store in a streamed replay
func varint(b []byte, off int) (v int64, next int, ok bool) {
	v, n := binary.Varint(b[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}
