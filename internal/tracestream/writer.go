package tracestream

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"finepack/internal/trace"
)

// Writer emits a v2 chunked trace stream: one header chunk up front, one
// iteration chunk per WriteIteration, and an index chunk plus trailer at
// Close. It buffers only the chunk under construction, so writing a
// billion-store trace needs O(window) memory.
type Writer struct {
	w      io.Writer
	meta   trace.Meta
	off    int64
	buf    []byte // framed-chunk assembly, reused
	pay    []byte // payload assembly, reused
	offs   []int64
	stores []uint64
	closed bool
}

// NewWriter starts a v2 stream on w with the given trace metadata.
// m.Iterations is ignored: the true count is whatever WriteIteration is
// called, recorded in the index at Close.
func NewWriter(w io.Writer, m trace.Meta) (*Writer, error) {
	if m.NumGPUs < 1 || m.NumGPUs > maxHeaderGPUs {
		return nil, fmt.Errorf("tracestream: NumGPUs %d outside [1,%d]", m.NumGPUs, maxHeaderGPUs)
	}
	if m.SingleGPUOpsPerIter <= 0 {
		return nil, fmt.Errorf("tracestream: single-GPU ops must be positive")
	}
	hj, err := json.Marshal(header{
		Format:              formatVersion,
		Name:                m.Name,
		NumGPUs:             m.NumGPUs,
		SingleGPUOpsPerIter: m.SingleGPUOpsPerIter,
	})
	if err != nil {
		return nil, fmt.Errorf("tracestream: encode header: %w", err)
	}
	sw := &Writer{w: w, meta: m}
	sw.pay = append(sw.pay[:0], chunkHeader)
	sw.pay = append(sw.pay, hj...)
	if err := sw.flushChunk(); err != nil {
		return nil, err
	}
	return sw, nil
}

// flushChunk frames w.pay and writes it out, advancing the offset.
func (w *Writer) flushChunk() error {
	w.buf = appendChunk(w.buf[:0], w.pay)
	n, err := w.w.Write(w.buf)
	w.off += int64(n)
	if err != nil {
		return fmt.Errorf("tracestream: write chunk: %w", err)
	}
	return nil
}

// WriteIteration appends one iteration as a chunk. The iteration must be
// structurally valid for the writer's system size (trace.Iteration.
// ValidateIn); invalid iterations are rejected so a v2 file never holds
// traffic the simulator would refuse.
func (w *Writer) WriteIteration(it *trace.Iteration) error {
	if w.closed {
		return fmt.Errorf("tracestream: write on closed writer")
	}
	if err := it.ValidateIn(w.meta.Name, len(w.offs), w.meta.NumGPUs); err != nil {
		return err
	}
	p := append(w.pay[:0], chunkIteration)
	p = binary.AppendUvarint(p, uint64(len(it.PerGPU)))
	var nStores uint64
	for g := range it.PerGPU {
		gw := &it.PerGPU[g]
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(gw.ComputeOps))
		p = binary.AppendUvarint(p, uint64(len(gw.Stores)))
		nStores += uint64(len(gw.Stores))
		// Address delta state resets per GPU so decode never carries
		// state across the per-GPU sub-streams.
		var prevFirst uint64
		for i := range gw.Stores {
			ws := &gw.Stores[i]
			if len(ws.Addrs) == 0 || len(ws.Addrs) > 255 {
				return fmt.Errorf("tracestream: store with %d lanes", len(ws.Addrs))
			}
			if ws.ElemSize < 0 || ws.ElemSize > 255 {
				return fmt.Errorf("tracestream: store with element size %d", ws.ElemSize)
			}
			p = binary.AppendUvarint(p, uint64(ws.Dst))
			p = append(p, byte(ws.ElemSize))
			var flags byte
			if ws.Atomic {
				flags |= 1
			}
			p = append(p, flags, byte(len(ws.Addrs)))
			first := ws.Addrs[0]
			p = binary.AppendVarint(p, int64(first-prevFirst))
			prevFirst = first
			prev := first
			for _, a := range ws.Addrs[1:] {
				p = binary.AppendVarint(p, int64(a-prev))
				prev = a
			}
		}
		p = binary.AppendUvarint(p, uint64(len(gw.Copies)))
		for _, c := range gw.Copies {
			p = binary.AppendUvarint(p, uint64(c.Dst))
			p = binary.AppendUvarint(p, uint64(c.Bytes))
			p = binary.AppendUvarint(p, uint64(c.UsefulBytes))
		}
	}
	w.pay = p
	if len(p) > maxChunkLen {
		return fmt.Errorf("tracestream: iteration chunk %dB exceeds %dB limit", len(p), maxChunkLen)
	}
	w.offs = append(w.offs, w.off)
	w.stores = append(w.stores, nStores)
	return w.flushChunk()
}

// Close writes the index chunk and trailer. The underlying writer is not
// closed (the caller owns it).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	indexOff := w.off
	p := append(w.pay[:0], chunkIndex)
	p = binary.AppendUvarint(p, uint64(len(w.offs)))
	var prev int64
	for i, off := range w.offs {
		p = binary.AppendUvarint(p, uint64(off-prev))
		prev = off
		p = binary.AppendUvarint(p, w.stores[i])
	}
	w.pay = p
	if err := w.flushChunk(); err != nil {
		return err
	}
	var tr [trailerLen]byte
	copy(tr[0:4], trailerMagic[:])
	binary.LittleEndian.PutUint64(tr[4:12], uint64(indexOff))
	binary.LittleEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(tr[0:12]))
	n, err := w.w.Write(tr[:])
	w.off += int64(n)
	if err != nil {
		return fmt.Errorf("tracestream: write trailer: %w", err)
	}
	return nil
}

// CopySource streams every iteration of src into w as a v2 chunked
// stream. This is the universal "save as v2": the source can be an
// in-memory trace (trace.NewSliceSource), another v2 file, or a
// synthesizer — memory stays O(window) throughout.
func CopySource(w io.Writer, src trace.IterationSource) error {
	if err := src.Reset(); err != nil {
		return err
	}
	sw, err := NewWriter(w, src.Meta())
	if err != nil {
		return err
	}
	for {
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := sw.WriteIteration(it); err != nil {
			return err
		}
	}
	return sw.Close()
}

// WriteTrace saves a materialized trace as a v2 stream.
func WriteTrace(w io.Writer, tr *trace.Trace) error {
	return CopySource(w, trace.NewSliceSource(tr))
}

// WriteFile writes a source to path as a v2 stream, atomically enough
// for trace artifacts: errors unlink the partial file rather than
// leaving a torn (and thus unreadable) stream behind.
func WriteFile(path string, src trace.IterationSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := CopySource(f, src); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
