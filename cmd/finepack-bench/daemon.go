package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"finepack/internal/obs"
	"finepack/internal/serve"
	"finepack/internal/sim"
	"finepack/internal/store"
	"finepack/internal/trace"
	"finepack/internal/workloads"
)

// jobSpec is the observe job each step submits: finepackd's smoke job
// (the smallest observable run) with a seed of its own, so every step
// executes a new simulation.
const jobSpec = `{"workload":"sssp","gpus":2,"scale":0.05,"iters":1,"seed":%d}`

// stepsPerPass is the daemon-jobs pass size: five passes give the 1000
// job latencies a p99 needs.
const stepsPerPass = 200

// jobSeed derives step n's job seed from the run seed (which the command
// line bounds below 2^40, so seeds never collide or wrap).
func jobSeed(seed int64, n int) int64 { return seed<<20 + int64(n) + 1 }

// daemonInstance is an in-process finepackd stack (store, engine with one
// worker, HTTP server on loopback) and the one closed-loop client that
// drives it over a single connection.
type daemonInstance struct {
	seed   int64
	steps  int
	dir    string
	st     *store.Store
	engine *serve.Engine
	m      *serve.Metrics
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// n counts steps so far; created counts jobs the daemon accepted as
	// new. prevSpec/prevID are the last new job, resubmitted next step.
	n, created       int
	prevSpec, prevID string
	// lastFetch is the most recent dedup fetch of a trace artifact.
	lastFetch   []byte
	lastFetchID string
}

func setupDaemonJobs(o options) (instance, error) {
	dir, err := os.MkdirTemp(o.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemonInstance{seed: o.seed, steps: stepsPerPass, dir: dir}
	if o.toy {
		d.steps = 3
	}
	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemonInstance) start() error {
	st, err := store.Open(d.dir, store.Options{})
	if err != nil {
		return err
	}
	d.st = st
	d.m = serve.NewMetrics()
	runner := serve.NewSuiteRunner(1, d.m.Executed)
	d.engine = serve.NewEngine(serve.EngineConfig{Workers: 1, Runner: runner.Run, OnFinish: d.m.Finished, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.hs = &http.Server{Handler: serve.NewServer(d.engine, d.m)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		_, err := d.get("/readyz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready: %w", err)
		}
	}
}

func (d *daemonInstance) close() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.engine != nil {
		d.engine.Drain()
	}
	var err error
	if d.hs != nil {
		err = d.hs.Close()
		<-d.served
	}
	if d.st != nil {
		if cerr := d.st.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemonInstance) pass(p *passRecord) {
	for i := 0; i < d.steps; i++ {
		d.step(p)
	}
	p.check(d.m.Executions() == uint64(d.created), "%d simulations executed for %d unique jobs", d.m.Executions(), d.created)
	if d.lastFetch != nil {
		var stored []byte
		j, ok := d.engine.Get(d.lastFetchID)
		if ok {
			var err error
			stored, err = d.engine.Artifact(context.Background(), j, serve.ArtifactTrace)
			ok = err == nil
		}
		p.check(ok && bytes.Equal(stored, d.lastFetch), "dedup fetch of %s differs from the stored trace artifact", d.lastFetchID)
	}
}

// step submits a new job, follows its events to the end, fetches its
// metrics, then resubmits the previous job and fetches its trace.
func (d *daemonInstance) step(p *passRecord) {
	spec := fmt.Sprintf(jobSpec, jobSeed(d.seed, d.n))
	first := d.n == 0
	d.n++
	t0 := time.Now()
	st, code, err := d.submit(spec)
	if !p.op(err) || !p.check(code == http.StatusAccepted, "submit: status %d, want 202", code) {
		return
	}
	d.created++
	t1 := time.Now()
	state, err := d.wait(st.ID)
	if !p.op(err) || !p.check(state == serve.StateDone, "job %s ended %q", st.ID, state) {
		return
	}
	t2 := time.Now()
	m, err := d.get("/v1/jobs/" + st.ID + "/artifacts/" + serve.ArtifactMetrics)
	if !p.op(err) {
		return
	}
	t3 := time.Now()
	p.lat["job_ms"] = append(p.lat["job_ms"], millis(t3.Sub(t0)))
	if first {
		p.digests["job0/metrics"] = bytesDigest(m)
	}
	if l := p.layers; l != nil {
		l.lat["serve.submit_ms"] = append(l.lat["serve.submit_ms"], millis(t1.Sub(t0)))
		l.lat["serve.wait_ms"] = append(l.lat["serve.wait_ms"], millis(t2.Sub(t1)))
		l.lat["serve.artifact_ms"] = append(l.lat["serve.artifact_ms"], millis(t3.Sub(t2)))
		e, err := obs.ParseExposition(bytes.NewReader(m))
		if p.op(err) {
			p.op(l.addRegistry(e, true))
		}
	}

	prevSpec, prevID := d.prevSpec, d.prevID
	d.prevSpec, d.prevID = spec, st.ID
	if prevID == "" {
		return
	}
	t4 := time.Now()
	dup, code, err := d.submit(prevSpec)
	if !p.op(err) || !p.check(code == http.StatusOK && dup.ID == prevID, "resubmit of %s: status %d, job %s", prevID, code, dup.ID) {
		return
	}
	tr, err := d.get("/v1/jobs/" + prevID + "/artifacts/" + serve.ArtifactTrace)
	if !p.op(err) {
		return
	}
	p.lat["fetch_ms"] = append(p.lat["fetch_ms"], millis(time.Since(t4)))
	d.lastFetch, d.lastFetchID = tr, prevID
	if l := p.layers; l != nil {
		var events []struct {
			Ph string `json:"ph"`
		}
		if p.op(json.Unmarshal(tr, &events)) {
			for _, e := range events {
				if e.Ph != "M" {
					l.traceEvents++
				}
			}
		}
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func (d *daemonInstance) submit(spec string) (jobStatus, int, error) {
	var st jobStatus
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return st, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, resp.StatusCode, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("submit response: %w", err)
	}
	return st, resp.StatusCode, nil
}

// wait follows a job's event stream to its end and returns the last
// stage it reported.
func (d *daemonInstance) wait(id string) (string, error) {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	var stage string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Progress
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("event of %s: %w", id, err)
		}
		stage = ev.Stage
	}
	return stage, sc.Err()
}

func (d *daemonInstance) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// replayJobs is how many of the run's first jobs the replays re-execute
// in process.
const replayJobs = 20

// replay regenerates the jobs' inputs (timing workloads.Generate over a
// pass's worth of seeds), measures the observe-job overhead as the first
// jobs' observed-and-rendered runs against plain ones, and replays those
// jobs' traces through the layers.
func (d *daemonInstance) replay(l *layerRecord) error {
	if st, ok := d.engine.StoreStats(); ok {
		l.store = &st
	}
	cfg := sim.DefaultConfig()
	l.plainWall, l.observedWall = 0, 0
	for i := 0; i < d.steps; i++ {
		t := time.Now()
		tr, err := workloads.NewSSSP().Generate(2, workloads.Params{Scale: 0.05, Iterations: 1, Seed: jobSeed(d.seed, i)})
		if err != nil {
			return err
		}
		l.generate += time.Since(t).Seconds()
		if i >= replayJobs {
			continue
		}
		t = time.Now()
		if _, err := sim.Run(tr, sim.FinePack, cfg); err != nil {
			return err
		}
		l.plainWall += time.Since(t).Seconds()
		t = time.Now()
		rec := obs.New(obs.Config{})
		res, err := sim.RunObserved(tr, sim.FinePack, cfg, rec)
		if err != nil {
			return err
		}
		if err := renderObserved(tr.Name, res, rec); err != nil {
			return err
		}
		l.observedWall += time.Since(t).Seconds()
		if err := replayLayers(trace.NewSliceSource(tr), cfg, &l.replay); err != nil {
			return err
		}
	}
	return nil
}

// renderObserved renders an observe job's artifacts the way finepackd
// does: report table, Perfetto trace, metrics exposition and timeline.
func renderObserved(workload string, res *sim.Result, rec *obs.Recorder) error {
	var buf bytes.Buffer
	serve.ObserveTable(workload, sim.FinePack, res, rec).Render(&buf)
	if err := rec.WriteTrace(&buf); err != nil {
		return err
	}
	if err := rec.WriteMetrics(&buf); err != nil {
		return err
	}
	return rec.WriteTimelineSVG(&buf)
}
