package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"finepack/internal/store"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

// TraceInfo is the wire form of an uploaded trace's metadata — everything
// the reader learns from the header and index without decoding a single
// iteration chunk.
type TraceInfo struct {
	ID         string  `json:"id"`
	Format     int     `json:"format"` // always 2: the chunked v2 stream
	Name       string  `json:"name"`
	GPUs       int     `json:"gpus"`
	Iterations int     `json:"iterations"`
	WarpStores uint64  `json:"warp_stores"`
	Bytes      int64   `json:"bytes"`
	SingleOps  float64 `json:"single_gpu_ops_per_iter"`
}

// TraceRegistry validates, stores, and opens uploaded traces over a
// content-addressed blob store. Uploads are chunked v2 streams, validated
// from header, index and checksums and then decoded window by window once,
// and replayed straight off the blob at job time.
type TraceRegistry struct {
	blobs *store.BlobStore
}

// NewTraceRegistry wraps a blob store.
func NewTraceRegistry(b *store.BlobStore) *TraceRegistry {
	return &TraceRegistry{blobs: b}
}

// MaxUploadBytes reports the largest accepted upload.
func (t *TraceRegistry) MaxUploadBytes() int64 { return t.blobs.MaxBytes() }

// Add validates an uploaded trace and stores it, returning its info.
// created is false when the identical bytes were already stored. Every
// iteration window is decoded once here, so a job can never trip over a
// chunk that passed its CRC but fails validation.
func (t *TraceRegistry) Add(b []byte) (TraceInfo, bool, error) {
	r, err := tracestream.NewReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return TraceInfo{}, false, fmt.Errorf("serve: %w", err)
	}
	if err := drain(r.Source()); err != nil {
		return TraceInfo{}, false, fmt.Errorf("serve: trace stream invalid: %w", err)
	}
	id, created, err := t.blobs.Put(b)
	if err != nil {
		return TraceInfo{}, false, err
	}
	return describe(id, r), created, nil
}

// describe summarizes an opened stream from its header and index.
func describe(id string, r *tracestream.Reader) TraceInfo {
	m := r.Meta()
	return TraceInfo{
		ID:         id,
		Format:     2,
		Name:       m.Name,
		GPUs:       m.NumGPUs,
		Iterations: m.Iterations,
		WarpStores: r.NumWarpStores(),
		Bytes:      r.Size(),
		SingleOps:  m.SingleGPUOpsPerIter,
	}
}

// drain pulls every window out of a source, surfacing the first error.
func drain(src trace.IterationSource) error {
	for {
		if _, err := src.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// Info summarizes a stored trace by ID from the blob's header and seek
// index alone: no iteration chunk is read, so a metadata request costs
// O(iterations), not the blob's size.
func (t *TraceRegistry) Info(id string) (TraceInfo, error) {
	r, size, close, err := t.blobs.Open(id)
	if err != nil {
		return TraceInfo{}, err
	}
	defer close()
	sr, err := tracestream.NewReader(r, size)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("serve: trace %s: %w", id, err)
	}
	return describe(id, sr), nil
}

// Has reports whether a trace blob exists.
func (t *TraceRegistry) Has(id string) bool { return t.blobs.Has(id) }

// IDs lists stored trace IDs.
func (t *TraceRegistry) IDs() ([]string, error) { return t.blobs.IDs() }

// OpenTrace implements TraceOpener: the blob streams window by window
// (dir-backed blobs straight off disk). A blob that is not a v2 stream —
// say one stored when the retired v1 encoding was still accepted — fails
// here with ErrNotStream, which names the format.
func (t *TraceRegistry) OpenTrace(id string) (trace.IterationSource, func() error, error) {
	r, size, close, err := t.blobs.Open(id)
	if err != nil {
		return nil, nil, err
	}
	sr, err := tracestream.NewReader(r, size)
	if err != nil {
		close()
		return nil, nil, fmt.Errorf("serve: trace %s: %w", id, err)
	}
	return sr.Source(), close, nil
}

// SetTraces installs the trace upload registry; nil (the default)
// disables the /v1/traces endpoints and TraceID jobs.
func (s *Server) SetTraces(t *TraceRegistry) { s.traces = t }

func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusServiceUnavailable, "trace store disabled")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.traces.MaxUploadBytes())
	b, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("trace upload exceeds %d bytes or failed: %v", s.traces.MaxUploadBytes(), err))
		return
	}
	info, created, err := s.traces.Add(b)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("Location", "/v1/traces/"+info.ID)
	writeJSON(w, code, info)
}

func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusServiceUnavailable, "trace store disabled")
		return
	}
	id := r.PathValue("id")
	if !store.ValidBlobID(id) || !s.traces.Has(id) {
		writeError(w, http.StatusNotFound, "no such trace")
		return
	}
	info, err := s.traces.Info(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusServiceUnavailable, "trace store disabled")
		return
	}
	ids, err := s.traces.IDs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"traces": ids})
}
