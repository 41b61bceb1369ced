package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"finepack/internal/collective"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/topo"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

// simOp is one simulator run of a pass.
type simOp struct {
	// key names the run in digests and errors ("sssp/p2p").
	key string
	// input names the trace the run replays, so P2P and FinePack runs of
	// the same input can be checked to send the same stores.
	input string
	par   sim.Paradigm
	// timer, when set, is the end-to-end metric this run's wall time
	// adds to ("p2p_s").
	timer string
	// run executes the run, observed when rec is non-nil; l is non-nil on
	// the traced run's observed pass.
	run func(rec *obs.Recorder, l *layerRecord) (*sim.Result, error)
}

// simInstance is a simulator workload: a fixed list of runs per pass.
type simInstance struct {
	ops []simOp
	// fig9 prints the Fig 9 geomeans beside the paper's anchors.
	fig9 bool
	// replayInputs calls each with every input of the layer replays.
	replayInputs func(each func(trace.IterationSource) error) error
	cfg          sim.Config
	// generate and write are the set-up's trace generation and trace
	// file writing times, in seconds.
	generate, write float64
	cleanup         func() error
}

func (s *simInstance) pass(p *passRecord) {
	sent := map[string]map[sim.Paradigm]uint64{}
	speedups := map[sim.Paradigm][]float64{}
	for _, op := range s.ops {
		var rec *obs.Recorder
		if p.layers != nil {
			rec = obs.New(obs.Config{MaxEvents: observedMaxEvents})
		}
		t := time.Now()
		res, err := op.run(rec, p.layers)
		d := time.Since(t).Seconds()
		if !p.op(err) {
			continue
		}
		if op.timer != "" {
			p.timers[op.timer] += d
		}
		if op.par == sim.P2P || op.par == sim.FinePack {
			p.stores += res.StoresSent
			p.storeSecs += d
			if sent[op.input] == nil {
				sent[op.input] = map[sim.Paradigm]uint64{}
			}
			sent[op.input][op.par] = res.StoresSent
		}
		p.digests[op.key] = resultDigest(res)
		speedups[op.par] = append(speedups[op.par], res.Speedup())
		if p.layers != nil {
			p.op(p.layers.addRun(res, rec))
		}
	}
	for _, in := range sortedKeys(sent) {
		if n, ok := sent[in][sim.P2P]; ok {
			p.check(n == sent[in][sim.FinePack], "%s: P2P sent %d stores, FinePack %d", in, n, sent[in][sim.FinePack])
		}
	}
	if s.fig9 {
		p.notes = append(p.notes, fmt.Sprintf(
			"fig9 geomean speedup: finepack %.2fx (EXPERIMENTS.md 2.55x at seed 1, paper 2.4x), infinite %.2fx (EXPERIMENTS.md 3.42x, paper 3.4x)",
			stats.GeoMean(speedups[sim.FinePack]), stats.GeoMean(speedups[sim.Infinite])))
	}
}

func (s *simInstance) replay(l *layerRecord) error {
	l.generate, l.write = s.generate, s.write
	return s.replayInputs(func(src trace.IterationSource) error {
		return replayLayers(src, s.cfg, &l.replay)
	})
}

func (s *simInstance) close() error {
	if s.cleanup != nil {
		return s.cleanup()
	}
	return nil
}

// timedSource adds the time spent in Next to *spent.
type timedSource struct {
	trace.IterationSource
	spent *time.Duration
}

func (s timedSource) Next() (*trace.Iteration, error) {
	t := time.Now()
	it, err := s.IterationSource.Next()
	*s.spent += time.Since(t)
	return it, err
}

// setupPaperSuite generates the eight Fig 9 applications for 4 GPUs at
// paper scale; a pass runs each under P2P, DMA, FinePack and Infinite.
func setupPaperSuite(o options) (instance, error) {
	params := workloads.Params{Scale: 1, Iterations: 3, Seed: o.seed}
	if o.toy {
		params = workloads.Params{Scale: 0.05, Iterations: 1, Seed: o.seed}
	}
	cfg := sim.DefaultConfig()
	s := &simInstance{fig9: true, cfg: cfg}
	var traces []*trace.Trace
	t := time.Now()
	for _, w := range workloads.All() {
		tr, err := w.Generate(4, params)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		for _, par := range sim.Fig9Paradigms() {
			par := par
			s.ops = append(s.ops, simOp{
				key: w.Name() + "/" + par.String(), input: w.Name(), par: par, timer: storeTimer(par),
				run: func(rec *obs.Recorder, _ *layerRecord) (*sim.Result, error) {
					return sim.RunObserved(tr, par, cfg, rec)
				},
			})
		}
	}
	s.generate = time.Since(t).Seconds()
	s.replayInputs = func(each func(trace.IterationSource) error) error {
		for _, tr := range traces {
			if err := each(trace.NewSliceSource(tr)); err != nil {
				return err
			}
		}
		return nil
	}
	return s, nil
}

func storeTimer(par sim.Paradigm) string {
	switch par {
	case sim.P2P:
		return "p2p_s"
	case sim.FinePack:
		return "finepack_s"
	}
	return ""
}

// setupMultihopMix builds the topology-crossover mix on the pod4x8 preset:
// a synthesized store stream (fanout 8) overlaid with a 16 KiB ring
// AllReduce. Sources are stateful, so every run builds a fresh mix.
//
// The store stream spans all of the ring's 62 windows rather than cycling
// two iterations through them: the work is the same, but a pass's store
// count then averages 31 times more random draws, so it hardly moves with
// the seed (cycling two iterations swung it by ±6%).
func setupMultihopMix(o options) (instance, error) {
	preset, warps, payload := topo.PresetPod4x8, 20, 16<<10
	if o.toy {
		preset, warps, payload = topo.PresetDGX2x8, 1, 1<<10
	}
	spec, err := topo.Preset(preset)
	if err != nil {
		return nil, err
	}
	if _, err := topo.Build(spec); err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.Topology = spec
	gpus := spec.NumGPUs()
	newMix := func(l *layerRecord) (trace.IterationSource, error) {
		ring, err := collective.NewSource(collective.Spec{Kind: collective.RingAllReduce, GPUs: gpus, PayloadBytes: payload})
		if err != nil {
			return nil, err
		}
		synth, err := tracestream.NewSynthSource(tracestream.Profile{
			Name: "stores-f8", NumGPUs: gpus, Iterations: ring.Meta().Iterations, Seed: o.seed,
			ComputeOpsPerIter: 2e6, WarpsPerGPUIter: warps, Contiguous: 0.5, Fanout: 8,
		})
		if err != nil {
			return nil, err
		}
		var stores trace.IterationSource = synth
		if l != nil {
			stores = timedSource{synth, &l.streamNext}
		}
		mix, err := collective.NewMix("multihop-mix", stores, ring)
		if err != nil || l == nil {
			return mix, err
		}
		return timedSource{mix, &l.mixNext}, nil
	}
	if _, err := newMix(nil); err != nil {
		return nil, err
	}
	s := &simInstance{cfg: cfg}
	for _, par := range []sim.Paradigm{sim.P2P, sim.FinePack} {
		par := par
		s.ops = append(s.ops, simOp{
			key: par.String(), input: "mix", par: par, timer: storeTimer(par),
			run: func(rec *obs.Recorder, l *layerRecord) (*sim.Result, error) {
				src, err := newMix(l)
				if err != nil {
					return nil, err
				}
				return sim.RunSourceObserved(src, par, cfg, rec)
			},
		})
	}
	s.replayInputs = func(each func(trace.IterationSource) error) error {
		src, err := newMix(nil)
		if err != nil {
			return err
		}
		return each(src)
	}
	return s, nil
}

// streamProfile is the stream-smoke synthesis profile (bench_test.go's
// streamSmokeProfile) at 24 iterations: 393,216 warp stores, 5% atomics.
func streamProfile(seed int64, toy bool) tracestream.Profile {
	p := tracestream.Profile{
		Name:              "sssp-synth",
		NumGPUs:           4,
		Iterations:        24,
		Seed:              seed,
		ComputeOpsPerIter: 2e7,
		WarpsPerGPUIter:   4096,
		SizeMix: []tracestream.SizeClass{
			{ElemSize: 4, Lanes: 32, Weight: 0.85},
			{ElemSize: 4, Lanes: 8, Weight: 0.15},
		},
		Contiguous:     0.9,
		AtomicFraction: 0.05,
	}
	if toy {
		p.Iterations, p.WarpsPerGPUIter = 2, 64
	}
	return p
}

// setupStreamedTrace synthesizes the stream profile to a v2 file; a pass
// replays it from disk once under FinePack and four times under DMA.
func setupStreamedTrace(o options) (instance, error) {
	f, err := os.CreateTemp(o.dir, "stream-*.fps")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, err
	}
	t := time.Now()
	synth, err := tracestream.NewSynthSource(streamProfile(o.seed, o.toy))
	if err == nil {
		err = tracestream.WriteFile(path, synth)
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	cfg := sim.DefaultConfig()
	s := &simInstance{cfg: cfg, write: time.Since(t).Seconds(), cleanup: func() error { return os.Remove(path) }}
	replayFile := func(par sim.Paradigm) func(*obs.Recorder, *layerRecord) (*sim.Result, error) {
		return func(rec *obs.Recorder, l *layerRecord) (*sim.Result, error) {
			f, err := tracestream.OpenFile(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			var src trace.IterationSource = f.Source()
			if l != nil {
				src = timedSource{src, &l.streamNext}
				l.streamBytes += float64(f.Size())
			}
			return sim.RunSourceObserved(src, par, cfg, rec)
		}
	}
	s.ops = append(s.ops, simOp{key: "finepack", input: filepath.Base(path), par: sim.FinePack, timer: "finepack_s", run: replayFile(sim.FinePack)})
	for i := 1; i <= 4; i++ {
		s.ops = append(s.ops, simOp{key: fmt.Sprintf("dma/%d", i), input: filepath.Base(path), par: sim.DMA, timer: "dma_s", run: replayFile(sim.DMA)})
	}
	s.replayInputs = func(each func(trace.IterationSource) error) error {
		f, err := tracestream.OpenFile(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return each(f.Source())
	}
	return s, nil
}
