package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"finepack/internal/experiments"
	"finepack/internal/obs"
	"finepack/internal/sim"
)

// smallSpec is the cheapest observable job: 2 GPUs at 5% scale.
func smallSpec() JobSpec {
	return JobSpec{Workload: "sssp", GPUs: 2, Scale: 0.05, Iters: 1}
}

// newTestServer wires a production stack — SuiteRunner, engine, server —
// sized for tests.
func newTestServer(t *testing.T, workers, queueLen int) (*httptest.Server, *Server, *Engine) {
	t.Helper()
	m := NewMetrics()
	runner := NewSuiteRunner(1, m.Executed)
	e := NewEngine(EngineConfig{
		Workers:  workers,
		QueueLen: queueLen,
		Runner:   runner.Run,
		OnFinish: m.Finished,
	})
	s := NewServer(e, m)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		e.Drain()
	})
	return ts, s, e
}

func postJob(t *testing.T, url string, spec any) (*http.Response, jobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &st)
	return resp, st
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// streamStages reads the job's event stream until a terminal stage and
// returns every observed stage in order. It is goroutine-safe (no
// testing.T) so tests can follow streams concurrently.
func streamStages(url, id string) ([]string, error) {
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("events content type = %q", ct)
	}
	var stages []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var p Progress
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
			return nil, fmt.Errorf("bad SSE payload %q: %v", line, err)
		}
		stages = append(stages, p.Stage)
		if p.Stage == StateDone || p.Stage == StateFailed || p.Stage == StateCanceled {
			return stages, nil
		}
	}
	return nil, fmt.Errorf("SSE stream ended without a terminal stage (saw %v)", stages)
}

func followSSE(t *testing.T, url, id string) []string {
	t.Helper()
	stages, err := streamStages(url, id)
	if err != nil {
		t.Fatal(err)
	}
	return stages
}

// TestServerE2E drives the full production path over real HTTP: submit,
// stream progress, fetch artifacts — then proves the artifacts are
// byte-identical to what the library (and therefore `finepack-sim
// observe`) produces for the same configuration, and that resubmission
// dedups to the same job without re-executing.
func TestServerE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed e2e skipped in -short mode")
	}
	ts, srv, _ := newTestServer(t, 2, 8)

	resp, st := postJob(t, ts.URL, smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// The job may finish before the stream attaches (it is tiny); late
	// subscribers are still owed the terminal stage. Live mid-run
	// streaming is pinned in TestServerBackpressureAndDrain, where the
	// runner is held open.
	stages := followSSE(t, ts.URL, st.ID)
	if stages[len(stages)-1] != StateDone {
		t.Fatalf("job ended %q (stages %v)", stages[len(stages)-1], stages)
	}

	// Reference artifacts straight from the library, exactly as the CLI
	// builds them: same config, same renderers, no HTTP.
	norm, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, params := norm.simConfig()
	suite := experiments.New(cfg, params, norm.GPUs)
	par, err := sim.ParadigmFromString(norm.Paradigm)
	if err != nil {
		t.Fatal(err)
	}
	res, rec, err := suite.ObservedRun(context.Background(), norm.Workload, par, obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	renderers := []struct {
		artifact string
		render   func(io.Writer) error
	}{
		{ArtifactReport, func(w io.Writer) error { ObserveTable(norm.Workload, par, res, rec).Render(w); return nil }},
		{ArtifactTrace, rec.WriteTrace},
		{ArtifactMetrics, rec.WriteMetrics},
		{ArtifactTimeline, rec.WriteTimelineSVG},
	}
	for _, r := range renderers {
		want.Reset()
		if err := r.render(&want); err != nil {
			t.Fatal(err)
		}
		code, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/"+r.artifact)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", r.artifact, code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s artifact differs from library rendering (%d vs %d bytes)", r.artifact, len(got), want.Len())
		}
	}

	// The metrics artifact must satisfy the obs round-trip contract.
	_, metricsArt := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/"+ArtifactMetrics)
	exp, err := obs.ParseExposition(bytes.NewReader(metricsArt))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := exp.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metricsArt, again.Bytes()) {
		t.Fatal("metrics artifact does not round-trip")
	}

	// Resubmission dedups: 200, same job, still one execution.
	resp2, st2 := postJob(t, ts.URL, smallSpec())
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmit = (%d, %s), want (200, %s)", resp2.StatusCode, st2.ID, st.ID)
	}
	if got := srv.Metrics().Executions(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}

	// Status reflects the finished job and lists artifacts in order.
	code, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	var final jobStatus
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{ArtifactReport, ArtifactTrace, ArtifactMetrics, ArtifactTimeline}
	if fmt.Sprint(final.Artifacts) != fmt.Sprint(wantNames) {
		t.Fatalf("artifacts = %v, want %v", final.Artifacts, wantNames)
	}

	// Daemon self-metrics expose the lifecycle counters.
	code, mtext := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code %d", code)
	}
	for _, want := range []string{
		"finepackd_jobs_submitted_total 2",
		"finepackd_jobs_deduped_total 1",
		"finepackd_sim_executions_total 1",
	} {
		if !strings.Contains(string(mtext), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, mtext)
		}
	}
}

// TestServerHammer submits the identical spec from many clients at once
// over real HTTP: one 202, the rest 200, exactly one simulation. Run
// with -race.
func TestServerHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed e2e skipped in -short mode")
	}
	ts, srv, _ := newTestServer(t, 4, 32)

	const n = 16
	codes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJob(t, ts.URL, smallSpec())
			codes[i] = resp.StatusCode
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	created := 0
	for i := 0; i < n; i++ {
		switch codes[i] {
		case http.StatusAccepted:
			created++
		case http.StatusOK:
		default:
			t.Fatalf("submitter %d got %d", i, codes[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("submitter %d got job %s, want %s", i, ids[i], ids[0])
		}
	}
	if created != 1 {
		t.Fatalf("%d submissions created the job, want 1", created)
	}
	if stages := followSSE(t, ts.URL, ids[0]); stages[len(stages)-1] != StateDone {
		t.Fatalf("hammered job ended %v", stages)
	}
	if got := srv.Metrics().Executions(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// TestServerValidation covers the request-rejection surface.
func TestServerValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", resp.StatusCode)
	}

	// Unknown fields are rejected, catching misspelled knobs instead of
	// silently running the default job.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"worlkoad":"sssp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}

	if resp, _ := postJob(t, ts.URL, JobSpec{GPUs: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", resp.StatusCode)
	}

	if code, _ := getBody(t, ts.URL+"/v1/jobs/jdeadbeef"); code != http.StatusNotFound {
		t.Fatalf("missing job: %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/jdeadbeef/artifacts/report"); code != http.StatusNotFound {
		t.Fatalf("missing job artifact: %d", code)
	}
}

// TestServerBackpressureAndDrain uses a controllable runner to pin the
// 429/Retry-After and drain/readyz behavior.
func TestServerBackpressureAndDrain(t *testing.T) {
	r := newBlockingRunner()
	m := NewMetrics()
	e := NewEngine(EngineConfig{Workers: 1, QueueLen: 1, Runner: r.run, OnFinish: m.Finished})
	s := NewServer(e, m)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, _ := postJob(t, ts.URL, JobSpec{Workload: "sssp"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-r.started
	if resp, _ := postJob(t, ts.URL, JobSpec{Workload: "jacobi"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, _ := postJob(t, ts.URL, JobSpec{Workload: "pagerank"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Artifacts of a still-running job are a 409 with Retry-After.
	var running jobStatus
	_, body := getBody(t, ts.URL+"/v1/jobs")
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Jobs) != 2 {
		t.Fatalf("list = %s (err %v)", body, err)
	}
	running = list.Jobs[0]
	code, _ := getBody(t, ts.URL+"/v1/jobs/"+running.ID+"/artifacts/report")
	if code != http.StatusConflict {
		t.Fatalf("artifact while running: %d, want 409", code)
	}

	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}

	// The held-open job is mid-run, so its SSE stream leads with the
	// running stage; once released it delivers the terminal stage. The
	// first event is read before the release, making the order
	// deterministic.
	sseResp, err := http.Get(ts.URL + "/v1/jobs/" + running.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sc := bufio.NewScanner(sseResp.Body)
	nextStage := func() string {
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var p Progress
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			return p.Stage
		}
		t.Fatal("SSE stream ended early")
		return ""
	}
	if got := nextStage(); got != StateRunning {
		t.Fatalf("mid-run SSE leads with %q, want running", got)
	}

	close(r.release)
	for {
		if stage := nextStage(); stage == StateDone {
			break
		}
	}
	e.Drain()
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", code)
	}
	if resp, _ := postJob(t, ts.URL, JobSpec{Workload: "ct"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", resp.StatusCode)
	}
	// Finished artifacts stay servable after drain.
	code, art := getBody(t, ts.URL+"/v1/jobs/"+running.ID+"/artifacts/report")
	if code != http.StatusOK || len(art) == 0 {
		t.Fatalf("post-drain artifact: (%d, %q)", code, art)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain: %d", code)
	}
}

// TestServerCancel cancels a running job over the API.
func TestServerCancel(t *testing.T) {
	r := newBlockingRunner()
	e := NewEngine(EngineConfig{Workers: 1, QueueLen: 2, Runner: r.run})
	defer e.Drain()
	ts := httptest.NewServer(NewServer(e, nil))
	defer ts.Close()

	_, st := postJob(t, ts.URL, JobSpec{Workload: "sssp"})
	<-r.started
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	j, _ := e.Get(st.ID)
	waitDone(t, j)
	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/report"); code != http.StatusGone {
		t.Fatalf("canceled artifact: %d, want 410", code)
	}
}

// TestReportJobE2E runs a tiny report job through the API and checks the
// artifact is the markdown report the library writes for the same suite.
func TestReportJobE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed e2e skipped in -short mode")
	}
	ts, _, e := newTestServer(t, 1, 4)
	spec := JobSpec{Kind: KindReport, GPUs: 2, Scale: 0.05, Iters: 1}
	resp, st := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	j, _ := e.Get(st.ID)
	waitDone(t, j)
	if state, _, jerr := j.Snapshot(); state != StateDone {
		t.Fatalf("report job ended (%s, %v)", state, jerr)
	}
	code, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/report")
	if code != http.StatusOK {
		t.Fatalf("artifact code %d", code)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, params := norm.simConfig()
	suite := experiments.New(cfg, params, norm.GPUs)
	suite.Parallelism = 1
	var want bytes.Buffer
	if err := suite.WriteReport(context.Background(), &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("report artifact differs from library report (%d vs %d bytes)", len(got), want.Len())
	}
}
