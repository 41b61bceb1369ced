package tracestream

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"finepack/internal/trace"
	"finepack/internal/workloads"
)

// writeV2 round-trips a trace into an in-memory v2 stream.
func writeV2(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

func openV2(t *testing.T, b []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

// TestRoundTripWorkloads writes every built-in workload's trace as v2 and
// materializes it back: the result must be deeply identical, proving the
// delta encoding is lossless for real traffic.
func TestRoundTripWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			tr, err := w.Generate(4, workloads.DefaultParams())
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			b := writeV2(t, tr)
			r := openV2(t, b)
			m := r.Meta()
			if m.Name != tr.Name || m.NumGPUs != tr.NumGPUs ||
				m.SingleGPUOpsPerIter != tr.SingleGPUOpsPerIter ||
				m.Iterations != len(tr.Iterations) {
				t.Fatalf("meta mismatch: %+v", m)
			}
			if got, want := r.NumWarpStores(), tr.NumWarpStores(); got != want {
				t.Fatalf("NumWarpStores = %d, want %d", got, want)
			}
			back, err := trace.Materialize(r.Source())
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			if !reflect.DeepEqual(tr, back) {
				t.Fatalf("round-trip changed the trace")
			}
		})
	}
}

// TestRandomAccess seeks straight to a late iteration without touching
// earlier ones, and re-reads an earlier one afterwards.
func TestRandomAccess(t *testing.T) {
	tr, err := workloads.NewJacobi().Generate(4, workloads.Params{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := writeV2(t, tr)
	src := openV2(t, b).Source()
	for _, i := range []int{4, 0, 2, 2} {
		it, err := src.ReadIteration(i)
		if err != nil {
			t.Fatalf("ReadIteration(%d): %v", i, err)
		}
		want := &tr.Iterations[i]
		if !reflect.DeepEqual(copyOf(it), copyOf(want)) {
			t.Fatalf("iteration %d differs after seek", i)
		}
	}
	if _, err := src.ReadIteration(5); err == nil {
		t.Fatal("ReadIteration(5) succeeded past the end")
	}
}

// copyOf deep-copies an iteration so reflect.DeepEqual is not confused by
// differing slice capacities in reused buffers.
func copyOf(it *trace.Iteration) *trace.Iteration {
	tr := &trace.Trace{Name: "x", NumGPUs: len(it.PerGPU), SingleGPUOpsPerIter: 1,
		Iterations: []trace.Iteration{*it}}
	out, err := trace.Materialize(trace.NewSliceSource(tr))
	if err != nil {
		panic(err)
	}
	return &out.Iterations[0]
}

// TestIterInfo checks the index's offsets and counts describe real chunks.
func TestIterInfo(t *testing.T) {
	tr, err := workloads.NewSSSP().Generate(4, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b := writeV2(t, tr)
	r := openV2(t, b)
	var sum uint64
	var total int64
	for i := 0; i < r.Meta().Iterations; i++ {
		off, size, stores := r.IterInfo(i)
		if off <= 0 || size <= chunkHeaderLen || off+size > int64(len(b)) {
			t.Fatalf("iter %d: bad extent off=%d size=%d", i, off, size)
		}
		sum += stores
		total += size
	}
	if sum != tr.NumWarpStores() {
		t.Fatalf("index stores %d, trace has %d", sum, tr.NumWarpStores())
	}
	if total >= int64(len(b)) {
		t.Fatalf("iteration chunks (%d) larger than file (%d)", total, len(b))
	}
}

// v1GobPrefix is the first 96 bytes of a trace in the retired v1 encoding
// (a gob stream: the "finepack-trace-v1" tag, then the Trace type).
const v1GobPrefix = "\x14\f\x00\x11finepack-trace-v1O\x7f\x03\x01\x01\x05Trace\x01\xff\x80\x00\x01\x04\x01\x04Name\x01\f\x00\x01\aNumGPUs\x01\x04\x00\x01\x13SingleGPUOpsPerIter\x01\b\x00\x01\nIterations\x01"

// TestNotStream: v1 gob input and junk must return ErrNotStream.
func TestNotStream(t *testing.T) {
	for name, b := range map[string][]byte{
		"v1-gob": []byte(v1GobPrefix),
		"junk":   bytes.Repeat([]byte{0xAB}, 256),
		"empty":  nil,
	} {
		if _, err := NewReader(bytes.NewReader(b), int64(len(b))); !errors.Is(err, ErrNotStream) {
			t.Errorf("%s: err = %v, want ErrNotStream", name, err)
		}
	}
}

// TestCorruption flips each byte of a valid stream in turn; every mutation
// must either fail cleanly at open/read time or decode to the identical
// trace (a flip in slack bytes is impossible here since every byte is
// covered by a checksum or the trailer).
func TestCorruption(t *testing.T) {
	tr, err := workloads.NewJacobi().Generate(2, workloads.Params{Iterations: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	good := writeV2(t, tr)
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		r, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue // rejected at open: fine
		}
		if _, err := trace.Materialize(r.Source()); err == nil {
			t.Fatalf("byte %d flipped yet stream decoded cleanly", i)
		}
	}
}

// TestTruncation cuts the stream at every length; all prefixes must fail
// with a clean error (most commonly ErrTruncated or ErrNotStream).
func TestTruncation(t *testing.T) {
	tr, err := workloads.NewJacobi().Generate(2, workloads.Params{Iterations: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	good := writeV2(t, tr)
	for n := 0; n < len(good); n++ {
		if _, err := NewReader(bytes.NewReader(good[:n]), int64(n)); err == nil {
			t.Fatalf("prefix of %d/%d bytes opened cleanly", n, len(good))
		}
	}
}

// TestSynthDeterminism: the same profile expands to the same trace, twice,
// and through independent sources.
func TestSynthDeterminism(t *testing.T) {
	p := Profile{
		Name: "synth-det", NumGPUs: 4, Iterations: 3, Seed: 42,
		ComputeOpsPerIter: 1e6, WarpsPerGPUIter: 50,
		Contiguous: 0.5, AtomicFraction: 0.1,
	}
	a, err := NewSynthSource(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSynthSource(p)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := trace.Materialize(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := trace.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("two expansions of the same profile differ")
	}
	// Reset and re-drain the first source: still identical.
	tc, err := trace.Materialize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tc) {
		t.Fatal("re-draining after Reset changed the expansion")
	}
	if ta.NumWarpStores() != p.NumWarpStores() {
		t.Fatalf("expanded %d stores, profile promises %d", ta.NumWarpStores(), p.NumWarpStores())
	}
}

// TestSynthValid: synthesized windows pass the same validation file
// windows do, across a spread of profile corners.
func TestSynthValid(t *testing.T) {
	for _, p := range []Profile{
		{Name: "allscatter", NumGPUs: 2, Iterations: 2, Seed: 1, ComputeOpsPerIter: 1e5, WarpsPerGPUIter: 20, Contiguous: 0},
		{Name: "allcontig", NumGPUs: 8, Iterations: 2, Seed: 2, ComputeOpsPerIter: 1e5, WarpsPerGPUIter: 20, Contiguous: 1, Fanout: 1},
		{Name: "atomics", NumGPUs: 3, Iterations: 1, Seed: 3, ComputeOpsPerIter: 1e5, WarpsPerGPUIter: 10, AtomicFraction: 1,
			SizeMix: []SizeClass{{ElemSize: 4, Lanes: 32, Weight: 1}, {ElemSize: 8, Lanes: 7, Weight: 0.5}}},
	} {
		src, err := NewSynthSource(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, err := trace.Materialize(src); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

// TestSynthRoundTripV2: a synthesized stream written as v2 reads back
// identical to its direct expansion.
func TestSynthRoundTripV2(t *testing.T) {
	p := Profile{Name: "synth-rt", NumGPUs: 4, Iterations: 2, Seed: 7,
		ComputeOpsPerIter: 1e6, WarpsPerGPUIter: 30, Contiguous: 0.8}
	src, err := NewSynthSource(p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := trace.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CopySource(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Materialize(openV2(t, buf.Bytes()).Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, back) {
		t.Fatal("v2 round-trip changed the synthesized trace")
	}
}

// TestProfileParse exercises JSON parsing, defaults, and rejection.
func TestProfileParse(t *testing.T) {
	p, err := ParseProfile(strings.NewReader(`{
		"name": "x", "gpus": 4, "iterations": 2, "seed": 9,
		"compute_ops_per_iter": 1e6, "warps_per_gpu_iter": 10, "contiguous": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Fanout != 3 || p.WindowBytes != 1<<20 || len(p.SizeMix) != 1 ||
		p.SingleGPUOpsPerIter != 4e6 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	bad := []string{
		`{"name":"x","gpus":1,"iterations":1,"compute_ops_per_iter":1,"warps_per_gpu_iter":1}`, // 1 GPU
		`{"name":"x","gpus":4,"iterations":1,"compute_ops_per_iter":1,"warps_per_gpu_iter":1,"typo_knob":3}`,
		`{"name":"x","gpus":4,"iterations":0,"compute_ops_per_iter":1,"warps_per_gpu_iter":1}`,
		`{"name":"x","gpus":4,"iterations":1,"compute_ops_per_iter":1,"warps_per_gpu_iter":1,"contiguous":1.5}`,
		`{"name":"x","gpus":4,"iterations":1,"compute_ops_per_iter":1,"warps_per_gpu_iter":1,"size_mix":[{"elem_size":99,"lanes":1,"weight":1}]}`,
	}
	for i, s := range bad {
		if _, err := ParseProfile(strings.NewReader(s)); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

// TestWriterRejectsInvalid: an iteration that fails validation must not
// reach the file.
func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, trace.Meta{Name: "x", NumGPUs: 2, SingleGPUOpsPerIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := &trace.Iteration{PerGPU: make([]trace.GPUWork, 3)} // wrong GPU count
	if err := w.WriteIteration(bad); err == nil {
		t.Fatal("invalid iteration accepted")
	}
}

// TestSourceEOF: a drained source keeps returning io.EOF.
func TestSourceEOF(t *testing.T) {
	tr, err := workloads.NewJacobi().Generate(2, workloads.Params{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := openV2(t, writeV2(t, tr)).Source()
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("Next after end = %v, want io.EOF", err)
		}
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatalf("Next after Reset: %v", err)
	}
}
