package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finepack/internal/store"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

// tinyTraceV2 renders the cheapest workload trace as v2 stream bytes.
func tinyTraceV2(t *testing.T) []byte {
	t.Helper()
	tr, err := workloads.NewJacobi().Generate(2, workloads.Params{Scale: 0.05, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracestream.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1GobPrefix is the first 96 bytes of a trace in the retired v1 encoding
// (a gob stream: the "finepack-trace-v1" tag, then the Trace type), as
// an older daemon accepted and stored it.
const v1GobPrefix = "\x14\f\x00\x11finepack-trace-v1O\x7f\x03\x01\x01\x05Trace\x01\xff\x80\x00\x01\x04\x01\x04Name\x01\f\x00\x01\aNumGPUs\x01\x04\x00\x01\x13SingleGPUOpsPerIter\x01\b\x00\x01\nIterations\x01"

func tinySynth() *tracestream.Profile {
	return &tracestream.Profile{
		Name:              "synth-test",
		NumGPUs:           2,
		Iterations:        1,
		WarpsPerGPUIter:   8,
		ComputeOpsPerIter: 1e6,
		Seed:              7,
	}
}

func newTraceRegistry(t *testing.T, dir string) *TraceRegistry {
	t.Helper()
	blobs, err := store.NewBlobStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewTraceRegistry(blobs)
}

// TestTraceSpecNormalize pins the trace-input validation rules.
func TestTraceSpecNormalize(t *testing.T) {
	id := store.BlobID([]byte("x"))
	ok := JobSpec{TraceID: id}
	n, err := ok.Normalize()
	if err != nil {
		t.Fatalf("trace spec rejected: %v", err)
	}
	if n.Paradigm != "finepack" || n.GPUs != 0 || n.Workload != "" {
		t.Fatalf("normalized = %+v", n)
	}
	bad := []JobSpec{
		{TraceID: id, Synth: tinySynth()},                  // mutually exclusive
		{TraceID: id, Workload: "sssp"},                    // workload fixed by trace
		{TraceID: id, GPUs: 4},                             // gpus fixed by trace
		{TraceID: id, Seed: 2},                             // seed fixed by trace
		{TraceID: "nope"},                                  // malformed id
		{TraceID: id, Kind: KindReport},                    // observe only
		{Synth: &tracestream.Profile{NumGPUs: 1}},          // profile invalid
		{Synth: tinySynth(), Paradigm: "bogus"},            // unknown paradigm
		{TraceID: "t" + strings.Repeat("../", 10) + "etc"}, // traversal shape
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("bad[%d] %+v normalized without error", i, s)
		}
	}
}

// TestTraceSpecIDStability: legacy specs must hash exactly as they did
// before the trace fields existed (omitempty keeps them out of the
// canonical JSON), and synth profiles dedupe across spellings.
func TestTraceSpecIDStability(t *testing.T) {
	legacy, err := JobSpec{Workload: "sssp"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	js := string(legacy.CanonicalJSON())
	if strings.Contains(js, "trace_id") || strings.Contains(js, "synth") {
		t.Fatalf("legacy canonical JSON leaks trace fields: %s", js)
	}

	// Two spellings of one profile — defaults implicit vs explicit — must
	// normalize to the same job ID.
	a := JobSpec{Synth: tinySynth()}
	full := *tinySynth()
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	b := JobSpec{Synth: &full}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.ID() != nb.ID() {
		t.Fatalf("profile spellings hash differently: %s vs %s", na.ID(), nb.ID())
	}
	// Normalize must not mutate the caller's profile.
	if a.Synth.SingleGPUOpsPerIter != 0 {
		t.Fatal("Normalize mutated the submitted profile in place")
	}
}

// TestTraceRegistryFormats: a v2 stream validates, dedupes, describes,
// and opens; anything else, the retired v1 encoding included, is
// rejected at upload.
func TestTraceRegistryFormats(t *testing.T) {
	reg := newTraceRegistry(t, "")
	b := tinyTraceV2(t)
	info, created, err := reg.Add(b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !created {
		t.Fatal("expected fresh blob")
	}
	if info.Format != 2 || info.Name != "jacobi" || info.GPUs != 2 || info.Iterations != 1 ||
		info.Bytes != int64(len(b)) || info.ID != store.BlobID(b) {
		t.Fatalf("info = %+v", info)
	}
	if _, again, _ := reg.Add(b); again {
		t.Fatal("re-upload did not dedupe")
	}
	src, closer, err := reg.OpenTrace(info.ID)
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}
	out, err := trace.Materialize(src)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if err := closer(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if out.Name != "jacobi" || len(out.Iterations) != 1 {
		t.Fatalf("replayed trace = %s/%d iters", out.Name, len(out.Iterations))
	}
	for name, bad := range map[string][]byte{
		"garbage": []byte("neither format"),
		"v1-gob":  []byte(v1GobPrefix),
	} {
		if _, _, err := reg.Add(bad); !errors.Is(err, tracestream.ErrNotStream) {
			t.Fatalf("%s upload: err = %v, want ErrNotStream", name, err)
		}
	}
	// Corrupt v2 body: framing-valid prefix damage must be rejected at
	// upload, not at job time.
	b = tinyTraceV2(t)
	b[len(b)/2] ^= 0xFF
	if _, _, err := reg.Add(b); err == nil {
		t.Fatal("corrupted stream accepted")
	}
}

// TestTraceInfoReadsHeaderAndIndexOnly: on a directory-backed store, Info
// answers exactly what Add returned, from the header and seek index alone
// — it still does after an iteration chunk of the blob is damaged on disk,
// which a job, decoding that chunk, does catch.
func TestTraceInfoReadsHeaderAndIndexOnly(t *testing.T) {
	dir := t.TempDir()
	reg := newTraceRegistry(t, dir)
	p := *tinySynth()
	p.Iterations = 3
	src, err := tracestream.NewSynthSource(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracestream.CopySource(&buf, src); err != nil {
		t.Fatal(err)
	}
	info, _, err := reg.Add(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reg.Info(info.ID); err != nil || got != info {
		t.Fatalf("Info = %+v, %v; Add returned %+v", got, err, info)
	}

	// Flip one byte in the middle iteration chunk's body.
	r, err := tracestream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	off, size, _ := r.IterInfo(1)
	path := filepath.Join(dir, info.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off+size/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := reg.Info(info.ID); err != nil || got != info {
		t.Fatalf("Info after chunk damage = %+v, %v; want %+v", got, err, info)
	}
	jobSrc, closer, err := reg.OpenTrace(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if _, err := trace.Materialize(jobSrc); !errors.Is(err, tracestream.ErrCorrupt) {
		t.Fatalf("replaying the damaged blob: err = %v, want ErrCorrupt", err)
	}
}

// TestStoredNonStreamBlobFailsCleanly: a blob that is not a v2 stream,
// such as a v1 trace an older daemon stored in the same data directory,
// yields an Info error and a failed job whose error names the v2 format.
func TestStoredNonStreamBlobFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-backed e2e skipped in -short mode")
	}
	dir := t.TempDir()
	url, reg := newTraceTestServer(t, dir)
	id, _, err := reg.blobs.Put([]byte(v1GobPrefix))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Info(id); !errors.Is(err, tracestream.ErrNotStream) {
		t.Fatalf("Info on a v1 blob: err = %v, want ErrNotStream", err)
	}

	resp, st := postJob(t, url, JobSpec{TraceID: id})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if stages := followSSE(t, url, st.ID); stages[len(stages)-1] != StateFailed {
		t.Fatalf("v1-blob job stages = %v, want a failed job", stages)
	}
	code, body := getBody(t, url+"/v1/jobs/"+st.ID)
	var got jobStatus
	if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK {
		t.Fatalf("job status %d: %s", code, body)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "v2") {
		t.Fatalf("job status = %+v, want failed naming the v2 format", got)
	}

	resp, err = http.Post(url+"/v1/traces", "application/octet-stream", strings.NewReader(v1GobPrefix))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("v1 upload status = %d, want 400", resp.StatusCode)
	}
}

// newTraceTestServer wires a stack with a trace registry attached.
func newTraceTestServer(t *testing.T, blobDir string) (string, *TraceRegistry) {
	t.Helper()
	m := NewMetrics()
	runner := NewSuiteRunner(1, m.Executed)
	reg := newTraceRegistry(t, blobDir)
	runner.Traces = reg
	e := NewEngine(EngineConfig{Workers: 2, QueueLen: 8, Runner: runner.Run, OnFinish: m.Finished})
	s := NewServer(e, m)
	s.SetTraces(reg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		e.Drain()
	})
	return ts.URL, reg
}

// TestTraceUploadAndRunE2E: upload a v2 trace over HTTP, run it as a job,
// and check the artifacts match a direct workload job byte-for-byte minus
// the workload provenance (the simulated system is identical).
func TestTraceUploadAndRunE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed e2e skipped in -short mode")
	}
	url, _ := newTraceTestServer(t, "")

	resp, err := http.Post(url+"/v1/traces", "application/octet-stream", bytes.NewReader(tinyTraceV2(t)))
	if err != nil {
		t.Fatal(err)
	}
	var info TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, want 201", resp.StatusCode)
	}
	if !store.ValidBlobID(info.ID) || info.Format != 2 {
		t.Fatalf("upload info = %+v", info)
	}

	// Info endpoint round-trips without running anything.
	code, body := getBody(t, url+"/v1/traces/"+info.ID)
	if code != http.StatusOK {
		t.Fatalf("trace info status = %d: %s", code, body)
	}
	var got TraceInfo
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("info mismatch: %+v vs %+v", got, info)
	}
	if code, _ := getBody(t, url+"/v1/traces/"+store.BlobID([]byte("missing"))); code != http.StatusNotFound {
		t.Fatalf("missing trace info status = %d, want 404", code)
	}

	// Submit referencing the trace; unknown IDs 404 at submit time.
	resp2, st := postJob(t, url, JobSpec{TraceID: info.ID})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp2.StatusCode)
	}
	stages := followSSE(t, url, st.ID)
	if stages[len(stages)-1] != StateDone {
		t.Fatalf("trace job stages = %v", stages)
	}
	code, report := getBody(t, url+"/v1/jobs/"+st.ID+"/artifacts/"+ArtifactReport)
	if code != http.StatusOK {
		t.Fatalf("artifact status = %d", code)
	}
	if !bytes.Contains(report, []byte("jacobi")) {
		t.Fatalf("report does not name the traced workload:\n%s", report)
	}

	if resp3, _ := postJob(t, url, JobSpec{TraceID: store.BlobID([]byte("missing"))}); resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("dangling trace_id submit status = %d, want 404", resp3.StatusCode)
	}
}

// TestSynthJobE2E: a synthesis-profile job runs with no upload at all,
// and the same profile resubmitted dedupes to the same job.
func TestSynthJobE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed e2e skipped in -short mode")
	}
	url, _ := newTraceTestServer(t, "")
	spec := JobSpec{Synth: tinySynth()}
	resp, st := postJob(t, url, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synth submit status = %d", resp.StatusCode)
	}
	stages := followSSE(t, url, st.ID)
	if stages[len(stages)-1] != StateDone {
		t.Fatalf("synth job stages = %v", stages)
	}
	resp2, st2 := postJob(t, url, spec)
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("synth resubmit = %d id %s (want 200, %s)", resp2.StatusCode, st2.ID, st.ID)
	}
	code, report := getBody(t, url+"/v1/jobs/"+st.ID+"/artifacts/"+ArtifactReport)
	if code != http.StatusOK || !bytes.Contains(report, []byte("synth-test")) {
		t.Fatalf("synth report (status %d):\n%s", code, report)
	}
}

// TestTraceEndpointsDisabled: without a registry the endpoints refuse
// cleanly and trace jobs are rejected at submit.
func TestTraceEndpointsDisabled(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload without registry = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts.URL, JobSpec{TraceID: store.BlobID([]byte("x"))}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace job without registry = %d, want 400", resp.StatusCode)
	}
}

// TestTraceBlobsSurviveRestart: dir-backed blobs re-resolve after the
// registry is rebuilt over the same directory, mirroring daemon restart.
func TestTraceBlobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	reg1 := newTraceRegistry(t, dir)
	info, _, err := reg1.Add(tinyTraceV2(t))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := newTraceRegistry(t, dir)
	if !reg2.Has(info.ID) {
		t.Fatal("blob lost across restart")
	}
	got, err := reg2.Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("info drifted across restart: %+v vs %+v", got, info)
	}
	src, closer, err := reg2.OpenTrace(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if _, err := trace.Materialize(src); err != nil {
		t.Fatal(err)
	}
	ids, err := reg2.IDs()
	if err != nil || len(ids) != 1 || ids[0] != info.ID {
		t.Fatalf("IDs = %v, %v", ids, err)
	}
}
