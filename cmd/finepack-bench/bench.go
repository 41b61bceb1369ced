package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A workload is one set of inputs the benchmark runs (see README.md for
// why each was chosen).
type workload struct {
	name  string
	setup func(o options) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass runs one fixed-size pass and records its timings, outcomes and
	// result digests. When p.layers is set it is the traced run's
	// observed pass: observability is attached and its counters recorded.
	pass(p *passRecord)
	// replay times single layers through their public APIs on inputs
	// derived from the workload's own trace.
	replay(l *layerRecord) error
	close() error
}

func workloadList() []workload {
	return []workload{
		{"paper-suite", setupPaperSuite},
		{"multihop-mix", setupMultihopMix},
		{"streamed-trace", setupStreamedTrace},
		{"daemon-jobs", setupDaemonJobs},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options configure one workload run.
type options struct {
	seed int64
	// seconds, when positive, keeps the measured passes going until that
	// much wall time has passed; passes is then the minimum count.
	seconds float64
	passes  int
	// toy shrinks every workload to a test-sized input.
	toy bool
	// dir holds the files a workload writes (trace file, daemon data).
	dir string
	// expected holds seed-1 result digests by workload; nil skips the
	// digest check.
	expected map[string]map[string]string
}

// metric is one measured quantity. Timings carry their per-pass samples
// and quartiles; counts carry a single value.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func (m metrics) setSamples(name string, xs []float64, unit string) {
	s := summarize(xs)
	m[name] = metric{Value: s.Med, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3, Samples: xs}
}

// runResult is one workload run: a plain run (end-to-end metrics) or a
// traced run (per-layer metrics).
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Host      host     `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

// host describes the machine a run was measured on. Only result files
// (-out) record it.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Date       string `json:"date"`
}

func thisHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Date: time.Now().UTC().Format(time.RFC3339)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// passRecord collects what one pass did.
type passRecord struct {
	// timers sums the wall seconds of named parts of the pass.
	timers map[string]float64
	// stores and storeSecs are the StoresSent and wall seconds of the
	// pass's store-paradigm (P2P and FinePack) runs.
	stores    uint64
	storeSecs float64
	// lat collects latency samples in milliseconds.
	lat map[string][]float64
	// digests maps each operation to the SHA-256 of its outcome.
	digests map[string]string
	notes   []string

	attempted, failed int
	errs              []string

	layers *layerRecord
}

func newPass() *passRecord {
	return &passRecord{timers: map[string]float64{}, lat: map[string][]float64{}, digests: map[string]string{}}
}

// op counts one operation and records its error, reporting success.
func (p *passRecord) op(err error) bool {
	p.attempted++
	if err != nil {
		p.fail(err.Error())
		return false
	}
	return true
}

// check counts one correctness check.
func (p *passRecord) check(ok bool, format string, args ...any) bool {
	p.attempted++
	if !ok {
		p.fail(fmt.Sprintf(format, args...))
	}
	return ok
}

func (p *passRecord) fail(msg string) {
	p.failed++
	p.errs = append(p.errs, msg)
}

func (r *runResult) count(p *passRecord) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, e := range p.errs {
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// sameDigests checks that a pass reproduced the reference pass's outcomes.
func (r *runResult) sameDigests(ref, got map[string]string) {
	p := newPass()
	for _, k := range sortedKeys(got) {
		p.check(got[k] == ref[k], "%s: outcome differs from the warm-up pass", k)
	}
	r.count(p)
}

// expectDigests checks a pass's outcomes against the committed digests.
func (r *runResult) expectDigests(want, got map[string]string) {
	p := newPass()
	p.check(len(want) > 0, "no expected digests for %s", r.Workload)
	for _, k := range sortedKeys(want) {
		p.check(got[k] == want[k], "%s: digest %.12s, expected %.12s", k, got[k], want[k])
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			p.check(false, "%s: no expected digest", k)
		}
	}
	r.count(p)
}

func (r *runResult) finish() {
	r.Correct = r.Failed == 0
}

// A run repeats its set-up to report a median: at least minSetups times,
// more while the total stays under setupBudget (sub-millisecond set-ups
// need many repetitions for a steady median). The repetitions run back
// to back before the warm-up: spread between passes, the daemon's boot
// times the disk and socket state its own jobs left behind.
const (
	minSetups   = 5
	maxSetups   = 51
	setupBudget = 1.0 // seconds
)

// setupRepeated runs the workload's set-up several times, each from a
// freshly collected heap, keeping the last instance, and returns the
// set-up times in seconds.
func setupRepeated(w workload, o options) (instance, []float64, error) {
	var (
		inst  instance
		times []float64
		total float64
	)
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
			inst = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		inst, err = w.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t).Seconds()
		times = append(times, d)
		total += d
	}
	return inst, times, nil
}

// warmUp runs the untimed warm-up pass, whose outcomes every later pass
// must reproduce, and checks them against the committed digests.
func warmUp(inst instance, r *runResult, o options) *passRecord {
	warm := newPass()
	inst.pass(warm)
	r.count(warm)
	r.Notes = append(r.Notes, warm.notes...)
	if o.expected != nil {
		r.expectDigests(o.expected[r.Workload], warm.digests)
	}
	return warm
}

// passStats are the host-side costs of one measured pass.
type passStats struct {
	wall, mallocs, allocBytes, gcCycles, gcPause float64
}

// measure runs one pass, timing it and reading the allocator around it.
// Every pass starts from a freshly collected heap, so none pays for the
// garbage of the one before.
func measure(inst instance, p *passRecord) passStats {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	inst.pass(p)
	wall := time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	return passStats{
		wall:       wall,
		mallocs:    float64(after.Mallocs - before.Mallocs),
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		gcCycles:   float64(after.NumGC - before.NumGC),
		gcPause:    float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// rssPasses is how many measured passes peak_rss_mb covers, after the
// set-up and the warm-up: a fixed amount of work, because the daemon's
// memory grows with every job it has served.
const rssPasses = 3

// measuredPasses runs passes until o.passes have run and, when o.seconds
// is set, until that much time has passed. It also returns the peak RSS
// after the first rssPasses passes (or all of them, if fewer).
func measuredPasses(inst instance, r *runResult, warm *passRecord, o options) ([]passStats, []*passRecord, float64) {
	var (
		stats  []passStats
		passes []*passRecord
		rss    float64
	)
	start := time.Now()
	for n := 0; n < o.passes || time.Since(start).Seconds() < o.seconds; n++ {
		p := newPass()
		stats = append(stats, measure(inst, p))
		passes = append(passes, p)
		r.count(p)
		r.sameDigests(warm.digests, p.digests)
		if n < rssPasses {
			rss = peakRSSMB()
		}
	}
	return stats, passes, rss
}

// closeInstance closes inst when a run returns, failing the run if the
// close fails.
func closeInstance(inst instance, r **runResult, err *error) {
	if cerr := inst.close(); cerr != nil && *err == nil {
		*r, *err = nil, fmt.Errorf("%s: close: %w", (*r).Workload, cerr)
	}
}

// runPlain measures a workload's end-to-end metrics.
func runPlain(w workload, o options) (r *runResult, err error) {
	r = &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Metrics: metrics{}}
	inst, setups, err := setupRepeated(w, o)
	if err != nil {
		return nil, err
	}
	defer closeInstance(inst, &r, &err)
	warm := warmUp(inst, r, o)
	stats, passes, rss := measuredPasses(inst, r, warm, o)

	m := r.Metrics
	m.setSamples("setup_s", setups, "s")
	m.setSamples("pass_s", column(stats, func(s passStats) float64 { return s.wall }), "s")
	m.setSamples("allocs_per_pass", column(stats, func(s passStats) float64 { return s.mallocs }), "count")
	m.setSamples("alloc_mb_per_pass", column(stats, func(s passStats) float64 { return s.allocBytes / (1 << 20) }), "MB")
	m.set("peak_rss_mb", rss, "MB")

	timers := map[string][]float64{}
	var storeRates []float64
	lat := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p.timers {
			timers[k] = append(timers[k], v)
		}
		if p.storeSecs > 0 {
			storeRates = append(storeRates, float64(p.stores)/p.storeSecs)
		}
		for k, v := range p.lat {
			lat[k] = append(lat[k], v...)
		}
	}
	for k, xs := range timers {
		m.setSamples(k, xs, "s")
	}
	if len(storeRates) > 0 {
		m.setSamples("stores_per_s", storeRates, "stores/s")
	}
	for _, k := range sortedKeys(lat) {
		setLatency(m, k, lat[k])
	}
	r.finish()
	if r.Attempted > 0 {
		m.set("error_rate", float64(r.Failed)/float64(r.Attempted), "fraction")
	}
	return r, nil
}

// setLatency reports a latency sample ("job_ms") as its median
// ("job_p50_ms") and the highest percentile with ten samples beyond it
// ("job_p99_ms" for 1000 samples).
func setLatency(m metrics, name string, xs []float64) {
	base := strings.TrimSuffix(name, "_ms")
	m[base+"_p50_ms"] = metric{Value: summarize(xs).Med, Unit: "ms", N: len(xs)}
	if pm, ok := tailPerMille(len(xs)); ok {
		m[base+"_"+percentileName(pm)+"_ms"] = metric{Value: percentile(xs, pm), Unit: "ms", N: len(xs)}
	}
}

// runTraced measures a workload's per-layer metrics: profiled plain
// passes, one observed pass, and the layer replays.
func runTraced(w workload, o options) (r *runResult, err error) {
	r = &runResult{Workload: w.name, Seed: o.seed, Trace: true, Seconds: o.seconds, Metrics: metrics{}}
	inst, err := w.setup(o)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer closeInstance(inst, &r, &err)
	warm := warmUp(inst, r, o)

	prof, err := os.MkdirTemp(o.dir, "profiles-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(prof)
	cpuPath, heapBefore, heapAfter := filepath.Join(prof, "cpu"), filepath.Join(prof, "heap0"), filepath.Join(prof, "heap1")
	if err := writeHeapProfile(heapBefore); err != nil {
		return nil, err
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	// One profiled pass, or as many as fit in o.seconds.
	traced := o
	traced.passes = 1
	stats, _, _ := measuredPasses(inst, r, warm, traced)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := writeHeapProfile(heapAfter); err != nil {
		return nil, err
	}
	cpu, err := profileShares(cpuPath, "")
	if err != nil {
		return nil, err
	}
	allocs, err := profileShares(heapAfter, heapBefore)
	if err != nil {
		return nil, err
	}

	l := newLayerRecord()
	obsPass := newPass()
	obsPass.layers = l
	t := time.Now()
	inst.pass(obsPass)
	l.observedWall = time.Since(t).Seconds()
	r.count(obsPass)
	r.sameDigests(warm.digests, obsPass.digests)
	if err := inst.replay(l); err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", w.name, err)
	}
	l.metrics(r.Metrics, stats, cpu, allocs)
	r.finish()
	return r, nil
}

func writeHeapProfile(path string) error {
	// The allocation profile is as of the last completed GC.
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

func column(stats []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
