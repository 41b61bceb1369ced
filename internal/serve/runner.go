package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"finepack/internal/collective"
	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

// Progress is one job progress update, emitted while the simulation runs
// (fed by the obs sampler) and at stage boundaries.
type Progress struct {
	// Stage names the lifecycle stage: "queued", "running", "rendering",
	// "done", "failed", "canceled".
	Stage string `json:"stage"`
	// SimMicros is the current simulated time in microseconds (observe
	// jobs while running).
	SimMicros float64 `json:"sim_us,omitempty"`
	// Events is the cumulative scheduler event count (observe jobs while
	// running).
	Events uint64 `json:"events,omitempty"`
	// Detail carries a stage-specific note (section name, error text).
	Detail string `json:"detail,omitempty"`
}

// Runner executes one normalized job spec and returns its artifacts.
// progress may be called from the worker goroutine at any rate and must
// not block. The engine treats Runner as opaque so tests can substitute
// stubs; SuiteRunner is the production implementation.
type Runner func(ctx context.Context, spec JobSpec, progress func(Progress)) (*Artifacts, error)

// suiteKey identifies a shareable experiments.Suite: every field that
// changes simulation output participates. Specs that agree on these share
// one Suite and therefore one singleflight cache — the daemon-level
// exactly-once guarantee rides on the Suite-level one.
type suiteKey struct {
	gpus      int
	scale     float64
	iters     int
	seed      int64
	gen       int
	ber       float64
	faultSeed int64
	// topology fingerprints the normalized topology spec by its canonical
	// JSON (empty for the flat fabric), so multi-hop and flat jobs over
	// otherwise identical configs never share a Suite cache.
	topology string
}

// SuiteRunner runs jobs on experiments.Suite instances cached by
// configuration, so repeated and concurrent jobs over the same config
// reuse traces and results instead of recomputing them.
type SuiteRunner struct {
	// Parallelism bounds each Suite's internal worker pool (report jobs
	// fan out runs). Zero selects GOMAXPROCS.
	Parallelism int
	// Traces resolves uploaded trace blobs for TraceID jobs. Nil means
	// the daemon has no trace store; TraceID jobs then fail cleanly.
	Traces TraceOpener
	// onRun is invoked once per executed job body, feeding the daemon's
	// finepackd_sim_executions_total metric and the exactly-once tests.
	onRun func()

	mu     sync.Mutex
	suites map[suiteKey]*experiments.Suite
}

// NewSuiteRunner builds a SuiteRunner. onRun, if non-nil, is invoked once
// per simulation execution (not per job — deduped jobs share executions).
func NewSuiteRunner(parallelism int, onRun func()) *SuiteRunner {
	return &SuiteRunner{
		Parallelism: parallelism,
		onRun:       onRun,
		suites:      make(map[suiteKey]*experiments.Suite),
	}
}

// suite returns the cached Suite for the spec's configuration, creating
// it on first use.
func (r *SuiteRunner) suite(spec JobSpec) *experiments.Suite {
	k := suiteKey{
		gpus:      spec.GPUs,
		scale:     spec.Scale,
		iters:     spec.Iters,
		seed:      spec.Seed,
		gen:       spec.PCIeGen,
		ber:       spec.BER,
		faultSeed: spec.FaultSeed,
	}
	if spec.Topo != nil {
		k.topology = string(spec.Topo.CanonicalJSON())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.suites[k]
	if !ok {
		cfg, params := spec.simConfig()
		s = experiments.New(cfg, params, spec.GPUs)
		s.Parallelism = r.Parallelism
		r.suites[k] = s
	}
	return s
}

// Run executes the job. The deterministic simulation happens inside
// experiments.Suite on the calling goroutine; this function only
// orchestrates and renders.
func (r *SuiteRunner) Run(ctx context.Context, spec JobSpec, progress func(Progress)) (*Artifacts, error) {
	if progress == nil {
		progress = func(Progress) {}
	}
	switch spec.Kind {
	case KindReport:
		return r.runReport(ctx, spec, progress)
	case KindTopoCrossover:
		return r.runTopoCrossover(ctx, spec, progress)
	}
	return r.runObserve(ctx, spec, progress)
}

// TraceOpener resolves an uploaded trace blob into a streaming iteration
// source. TraceRegistry is the production implementation.
type TraceOpener interface {
	OpenTrace(id string) (trace.IterationSource, func() error, error)
}

// runTraceObserve executes an observe job whose input is an uploaded
// trace, a synthesis profile or a collective spec rather than a generated
// workload. The
// source streams straight into the simulator — an uploaded v2 file or a
// synthesized stream replays in O(window) memory, so trace jobs far
// larger than any built-in workload fit the daemon. Suite caches are
// bypassed: the job-level content-addressed dedup already guarantees
// exactly-once per distinct (trace, config) pair.
func (r *SuiteRunner) runTraceObserve(ctx context.Context, spec JobSpec, progress func(Progress)) (*Artifacts, error) {
	par, err := sim.ParadigmFromString(spec.Paradigm)
	if err != nil {
		return nil, err
	}
	var (
		src    trace.IterationSource
		closer func() error
	)
	switch {
	case spec.Synth != nil:
		src, err = tracestream.NewSynthSource(*spec.Synth)
		closer = func() error { return nil }
	case spec.Collective != nil:
		src, err = collective.NewSource(*spec.Collective)
		closer = func() error { return nil }
	default:
		if r.Traces == nil {
			return nil, fmt.Errorf("serve: no trace store configured; cannot run trace_id jobs")
		}
		src, closer, err = r.Traces.OpenTrace(spec.TraceID)
	}
	if err != nil {
		return nil, err
	}
	defer closer()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	oc := spec.obsConfig()
	oc.Progress = func(at des.Time, events uint64) {
		progress(Progress{Stage: "running", SimMicros: at.Micros(), Events: events})
	}
	if r.onRun != nil {
		r.onRun()
	}
	cfg, _ := spec.simConfig()
	rec := obs.New(oc)
	res, err := sim.RunSourceObserved(src, par, cfg, rec)
	if err != nil {
		return nil, err
	}
	progress(Progress{Stage: "rendering"})
	return renderObserve(res.Workload, par, res, rec)
}

func (r *SuiteRunner) runObserve(ctx context.Context, spec JobSpec, progress func(Progress)) (*Artifacts, error) {
	if spec.TraceID != "" || spec.Synth != nil || spec.Collective != nil {
		return r.runTraceObserve(ctx, spec, progress)
	}
	s := r.suite(spec)
	par, err := sim.ParadigmFromString(spec.Paradigm)
	if err != nil {
		return nil, err
	}
	oc := spec.obsConfig()
	// The sampler hook runs on the simulation goroutine; it must not
	// block, so progress implementations buffer or drop.
	oc.Progress = func(at des.Time, events uint64) {
		progress(Progress{Stage: "running", SimMicros: at.Micros(), Events: events})
	}
	if r.onRun != nil {
		r.onRun()
	}
	res, rec, err := s.ObservedRun(ctx, spec.Workload, par, oc)
	if err != nil {
		return nil, err
	}
	progress(Progress{Stage: "rendering"})
	return renderObserve(spec.Workload, par, res, rec)
}

// renderObserve assembles the standard observe-job artifact set from a
// finished run.
func renderObserve(workload string, par sim.Paradigm, res *sim.Result, rec *obs.Recorder) (*Artifacts, error) {
	a := &Artifacts{}
	var buf bytes.Buffer
	ObserveTable(workload, par, res, rec).Render(&buf)
	a.Put(ArtifactReport, append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	if err := rec.WriteTrace(&buf); err != nil {
		return nil, err
	}
	a.Put(ArtifactTrace, append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	if err := rec.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	a.Put(ArtifactMetrics, append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	if err := rec.WriteTimelineSVG(&buf); err != nil {
		return nil, err
	}
	a.Put(ArtifactTimeline, append([]byte(nil), buf.Bytes()...))
	return a, nil
}

// runTopoCrossover executes a topology-crossover sweep job: the report
// artifact is the crossover table (goodput split intra/inter-node for
// FinePack and P2P as store fanout widens against a concurrent ring
// AllReduce).
func (r *SuiteRunner) runTopoCrossover(ctx context.Context, spec JobSpec, progress func(Progress)) (*Artifacts, error) {
	s := r.suite(spec)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.onRun != nil {
		r.onRun()
	}
	progress(Progress{Stage: "running", Detail: "topology crossover sweep"})
	rows, err := s.TopoCrossover(spec.Topo, nil)
	if err != nil {
		return nil, err
	}
	progress(Progress{Stage: "rendering"})
	var buf bytes.Buffer
	experiments.TopoCrossoverTable(rows).Render(&buf)
	a := &Artifacts{}
	a.Put(ArtifactReport, append([]byte(nil), buf.Bytes()...))
	return a, nil
}

func (r *SuiteRunner) runReport(ctx context.Context, spec JobSpec, progress func(Progress)) (*Artifacts, error) {
	s := r.suite(spec)
	if r.onRun != nil {
		r.onRun()
	}
	progress(Progress{Stage: "running", Detail: "report sweep"})
	var buf bytes.Buffer
	if err := s.WriteReport(ctx, &buf); err != nil {
		return nil, err
	}
	progress(Progress{Stage: "rendering"})
	a := &Artifacts{}
	a.Put(ArtifactReport, append([]byte(nil), buf.Bytes()...))
	return a, nil
}
