// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI): each Fig*/Tab* function regenerates the corresponding
// artifact's rows or series from the simulator, and the companion *Table
// helpers render them in the layout of the published chart. Experiments
// lists them once, in report order; the finepack-sim verbs, its `all`
// verb and WriteReport all read that list. cmd/finepack-sim and
// bench_test.go are thin wrappers over this package.
//
// Every run in the evaluation is an independent (workload, paradigm,
// config) simulation, so the Suite fans them out across one bounded worker
// pool (forEach) before each figure assembles its rows serially from the
// cache.
// Each per-run DES stays single-threaded (see the internal/des doc
// comment); only whole runs execute concurrently, and rows are always
// collected in workload/paradigm order from cached deterministic results,
// never in completion order — parallel output is byte-identical to serial.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"finepack/internal/obs"
	"finepack/internal/pcie"
	"finepack/internal/sim"
	"finepack/internal/trace"
	"finepack/internal/workloads"
)

// Suite carries the shared configuration and caches traces and simulation
// results across experiments (Figs 9–12 reuse the same runs). The caches
// are safe for concurrent use and deduplicate in-flight work: two
// goroutines asking for the same run share one execution.
type Suite struct {
	// Cfg is the system configuration (Table III defaults).
	Cfg sim.Config
	// Params controls workload trace generation.
	Params workloads.Params
	// NumGPUs is the evaluated system size (4 in §V).
	NumGPUs int
	// Parallelism bounds the number of simulation runs in flight at once.
	// Zero selects GOMAXPROCS; 1 forces fully serial execution.
	Parallelism int

	mu      sync.Mutex
	traces  map[traceKey]*traceCell
	results map[resultKey]*resultCell
}

// traceCell and resultCell are singleflight slots: the first goroutine to
// claim a key runs the work inside the sync.Once, everyone else blocks on
// the same Once and reads the settled value. Errors settle too — the work
// is deterministic, so retrying would only reproduce them.
type traceCell struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

type resultCell struct {
	once sync.Once
	res  *sim.Result
	err  error
}

type traceKey struct {
	name string
	gpus int
}

// resultKey identifies one cached run. cfg encodes the whole sim.Config,
// so two configs that differ in any field never share a result.
type resultKey struct {
	name     string
	gpus     int
	paradigm sim.Paradigm
	cfg      string
}

// configKey encodes cfg for resultKey: the topology by its canonical JSON
// (empty on the flat fabric) and every other field in Go syntax. %#v
// prints numbers exactly and never calls a String method, so no two
// distinct values (des.Time's rounded String, say) share an encoding.
func configKey(cfg sim.Config) string {
	var topology []byte
	if cfg.Topology != nil {
		topology = cfg.Topology.CanonicalJSON()
		cfg.Topology = nil
	}
	return fmt.Sprintf("%#v|%s", cfg, topology)
}

// Default returns the paper's evaluation setup: 4 GPUs, PCIe 4.0,
// Table III FinePack parameters, full-scale workloads.
func Default() *Suite {
	return New(sim.DefaultConfig(), workloads.DefaultParams(), 4)
}

// Quick returns a reduced-scale suite for tests and smoke runs.
func Quick() *Suite {
	return New(sim.DefaultConfig(), workloads.Params{Scale: 0.25, Iterations: 2, Seed: 1}, 4)
}

// New builds a suite.
func New(cfg sim.Config, params workloads.Params, numGPUs int) *Suite {
	return &Suite{
		Cfg:     cfg,
		Params:  params,
		NumGPUs: numGPUs,
		traces:  make(map[traceKey]*traceCell),
		results: make(map[resultKey]*resultCell),
	}
}

// parallelism resolves the effective worker count.
func (s *Suite) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// ResetResults drops every cached simulation result while keeping the
// generated traces, so benchmarks can measure simulation cost alone
// against already-built inputs.
func (s *Suite) ResetResults() {
	s.mu.Lock()
	s.results = make(map[resultKey]*resultCell)
	s.mu.Unlock()
}

// Trace returns (generating and caching) the trace for a workload.
func (s *Suite) Trace(name string, gpus int) (*trace.Trace, error) {
	k := traceKey{name, gpus}
	s.mu.Lock()
	c, ok := s.traces[k]
	if !ok {
		c = &traceCell{}
		s.traces[k] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		w, err := workloads.ByName(name)
		if err != nil {
			c.err = err
			return
		}
		t, err := w.Generate(gpus, s.Params)
		if err != nil {
			c.err = fmt.Errorf("experiments: generating %s: %w", name, err)
			return
		}
		c.tr = t
	})
	return c.tr, c.err
}

// Run returns (running and caching) one simulation result under the
// suite's configuration.
func (s *Suite) Run(name string, par sim.Paradigm) (*sim.Result, error) {
	return s.runWith(name, s.NumGPUs, par, s.Cfg)
}

func (s *Suite) runWith(name string, gpus int, par sim.Paradigm, cfg sim.Config) (*sim.Result, error) {
	k := resultKey{name: name, gpus: gpus, paradigm: par, cfg: configKey(cfg)}
	s.mu.Lock()
	c, ok := s.results[k]
	if !ok {
		c = &resultCell{}
		s.results[k] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		tr, err := s.Trace(name, gpus)
		if err != nil {
			c.err = err
			return
		}
		r, err := sim.Run(tr, par, cfg)
		if err != nil {
			c.err = fmt.Errorf("experiments: %s/%s: %w", name, par, err)
			return
		}
		c.res = r
	})
	return c.res, c.err
}

// ObservedRun executes one simulation with a fresh observability recorder
// attached and returns both the result and the recorder holding the run's
// trace, metrics, and sampled series.
//
// Every call builds its own Recorder — recorders are single-run,
// single-threaded sinks, so parallel ObservedRun calls never share one
// (see parallel_test.go's race hammer). The trace cache is shared as
// usual; the result cache is bypassed: a cached result would come without
// the artifacts the caller is asking for, and observed runs are one-off
// diagnostics, not figure inputs worth caching.
//
// Cancellation is cooperative: ctx is checked before trace generation and
// again before the simulation starts, so a canceled or deadline-expired
// job aborts between those stages rather than completing silently. The
// run itself, once started, always completes, because determinism makes
// a partial run worthless.
func (s *Suite) ObservedRun(ctx context.Context, name string, par sim.Paradigm, oc obs.Config) (*sim.Result, *obs.Recorder, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	tr, err := s.Trace(name, s.NumGPUs)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rec := obs.New(oc)
	res, err := sim.RunObserved(tr, par, s.Cfg, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s/%s: %w", name, par, err)
	}
	return res, rec, nil
}

// forEach calls do(i) for every i in [0, n) on the suite's worker pool:
// the one place this package starts goroutines. With Parallelism 1 (or
// n ≤ 1) it calls do in index order on the caller's goroutine. do must be
// safe to call concurrently; callers write each index's outcome to its
// own slot or to the singleflight caches and read it back in a fixed
// order, so the output never depends on completion order.
func (s *Suite) forEach(n int, do func(i int)) {
	workers := min(s.parallelism(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// runJob describes one (workload, gpus, paradigm, config) simulation.
type runJob struct {
	name string
	gpus int
	par  sim.Paradigm
	cfg  sim.Config
}

// warm runs the given jobs on the worker pool, filling the result (and,
// transitively, trace) caches before a figure assembles its rows.
// Errors are dropped here: the assembly loop that follows re-requests
// every run from the cache and surfaces the identical, deterministic
// error at the row where it belongs.
func (s *Suite) warm(jobs []runJob) {
	s.forEach(len(jobs), func(i int) {
		j := jobs[i]
		_, _ = s.runWith(j.name, j.gpus, j.par, j.cfg)
	})
}

// suiteJobs enumerates one run per workload for each given paradigm under
// cfg — the fan-out unit shared by most figures.
func (s *Suite) suiteJobs(gpus int, cfg sim.Config, pars ...sim.Paradigm) []runJob {
	jobs := make([]runJob, 0, len(pars)*len(s.Workloads()))
	for _, name := range s.Workloads() {
		for _, par := range pars {
			jobs = append(jobs, runJob{name: name, gpus: gpus, par: par, cfg: cfg})
		}
	}
	return jobs
}

// withGen returns the suite config retargeted at a PCIe generation.
func (s *Suite) withGen(g pcie.Generation) sim.Config {
	cfg := s.Cfg
	cfg.Gen = g
	cfg.Bandwidth = 0
	return cfg
}

// Workloads lists the evaluated workload names.
func (s *Suite) Workloads() []string { return workloads.Names() }
