// Package finepack_test holds the benchmark harness: one benchmark per
// table and figure of the paper's evaluation (each run regenerates that
// artifact's rows from the simulator and reports its headline number as a
// custom metric), plus micro-benchmarks of the FinePack datapath itself.
//
// Each figure benchmark constructs its Suite and generates traces once,
// outside the timed region, then calls Suite.ResetResults per iteration:
// the timed loop measures exactly what the benchmark names — simulation
// runs plus row assembly — not suite construction or trace generation.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or `make bench` for a machine-readable BENCH_<date>.json snapshot.
package finepack_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"finepack/internal/collective"
	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/gpusim"
	"finepack/internal/interconnect"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/topo"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

// benchParams keeps each figure benchmark iteration in the low seconds
// while preserving every qualitative shape.
func benchParams() workloads.Params {
	return workloads.Params{Scale: 0.4, Iterations: 2, Seed: 1}
}

func newSuite() *experiments.Suite {
	return experiments.New(sim.DefaultConfig(), benchParams(), 4)
}

// warmSuite runs one untimed pass of an experiment so its traces (and any
// one-time laziness) are resident before the timed loop starts.
func warmSuite(b *testing.B, fn func() error) {
	b.Helper()
	if err := fn(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
}

func BenchmarkFig2Goodput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points := experiments.Fig2()
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig4StoreSizes(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.Fig4(); return err })
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Sub32
		}
		b.ReportMetric(sum/float64(len(rows))*100, "%sub32B")
	}
}

func BenchmarkFig9Speedup(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, _, err := s.Fig9(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		_, geo, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geo[sim.FinePack], "finepack-geomean-x")
		b.ReportMetric(geo[sim.Infinite], "infinite-geomean-x")
	}
}

func BenchmarkFig10WireBytes(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.Fig10(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		var p2p, fp float64
		for _, r := range rows {
			p2p += r.Useful[sim.P2P] + r.Protocol[sim.P2P] + r.Wasted[sim.P2P]
			fp += r.Useful[sim.FinePack] + r.Protocol[sim.FinePack] + r.Wasted[sim.FinePack]
		}
		b.ReportMetric(p2p/fp, "p2p-over-finepack-x")
	}
}

func BenchmarkFig11Packing(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, _, err := s.Fig11(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		_, mean, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean, "stores/packet")
	}
}

func BenchmarkFig12Subheader(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, _, err := s.Fig12(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		_, geo, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geo[5], "5B-geomean-x")
	}
}

func BenchmarkFig13Bandwidth(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.Fig13(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-2].Speedup[sim.FinePack], "pcie6-finepack-x")
	}
}

func BenchmarkTab2SubheaderTradeoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.Tab2Table().NumRows() != 5 {
			b.Fatal("Table II shape")
		}
	}
}

func BenchmarkAltDesignConfigPacket(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.AltDesign(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.AltDesign()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.RunBytes == 48 && !r.Measured {
				b.ReportMetric(r.InefficiencyPc, "%overhead-at-48B")
			}
		}
	}
}

func BenchmarkWriteCombiningCompare(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, _, err := s.WCCompare(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		_, overall, err := s.WCCompare()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(overall, "%wire-reduction")
	}
}

func BenchmarkGPSCompare(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, _, err := s.GPSCompare(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		_, ratio, err := s.GPSCompare()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratio, "fp-over-gps-x")
	}
}

func BenchmarkScale16GPUs(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.Scale16(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		res, err := s.Scale16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FPOverP2P, "fp-over-p2p-x")
		b.ReportMetric(res.FPOverDMA, "fp-over-dma-x")
	}
}

func BenchmarkAblationQueueEntries(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.AblationQueueEntries(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.AblationQueueEntries()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-2].Geomean, "64-entry-geomean-x")
	}
}

func BenchmarkAblationOpenWindows(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.AblationOpenWindows(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		if _, err := s.AblationOpenWindows(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFlushTimeout(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.AblationFlushTimeout(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.AblationFlushTimeout()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].StoresPerPacket, "no-timeout-stores/packet")
	}
}

func BenchmarkUMBaseline(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.UMCompare(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.UMCompare()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 1e18
		for _, r := range rows {
			if r.UMSpeedup < worst {
				worst = r.UMSpeedup
			}
		}
		b.ReportMetric(worst, "worst-um-speedup-x")
	}
}

func BenchmarkOverlapDecomposition(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.Overlap(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		if _, err := s.Overlap(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalingCurve(b *testing.B) {
	s := newSuite()
	warmSuite(b, func() error { _, err := s.Scaling(); return err })
	for i := 0; i < b.N; i++ {
		s.ResetResults()
		rows, err := s.Scaling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Speedup[sim.FinePack], "16gpu-finepack-x")
	}
}

func BenchmarkEncodeDecodePacket(b *testing.B) {
	cfg := core.DefaultConfig()
	var last *core.Packet
	q, err := core.NewQueue(cfg, func(p *core.Packet) { last = p })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := q.Write(core.Store{Dst: 1, Addr: uint64(i) * 16, Size: 8}); err != nil {
			b.Fatal(err)
		}
	}
	q.FlushAll(core.CauseDrain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := core.EncodePacket(cfg, last)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.DecodePacket(cfg, wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNVLinkFinePack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.NVLinkFinePack()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(rows[1].NVLinkGain, "8B-nvlink-gain-x")
	}
}

// --------------------------------------------------- datapath micro-benches

// BenchmarkSchedulerEvents measures raw DES kernel throughput: slab event
// allocation, heap push, and dispatch, with batches of staggered timestamps
// so the heap actually reorders.
func BenchmarkSchedulerEvents(b *testing.B) {
	sched := des.NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.After(des.Time(i%64)*des.Nanosecond, des.Func(fn))
		if sched.Pending() >= 512 {
			sched.Run()
		}
	}
	sched.Run()
}

// sendBurst times a cold burst on a fresh network per iteration: 16384
// 64-byte messages, from every other GPU to GPU 0, all accepted before
// the scheduler runs, so the whole burst is in flight at once. Its
// allocs/op is dominated by the per-message pipeline state: one pooled
// transfer per message, carved from slabs and its own event handler.
// The timer restarts here so that a caller's set-up (the pod4x8 topology
// build) does not count: under -benchtime=1x, as the CI gate runs it, it
// would not be amortized.
func sendBurst(b *testing.B, cfg interconnect.Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := des.NewScheduler()
		n, err := interconnect.New(sched, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < 16384; m++ {
			n.Send(1+m%(cfg.NumGPUs-1), 0, 64, nil)
		}
		sched.Run()
	}
}

// BenchmarkNetworkSendBurstFlat4 is the burst on the paper's 4-GPU,
// one-switch fabric.
func BenchmarkNetworkSendBurstFlat4(b *testing.B) {
	sendBurst(b, interconnect.DefaultConfig(4, 32e9))
}

// BenchmarkNetworkSendBurstPod4x8 is the burst on the 32-GPU pod4x8
// hierarchy: multi-hop routes with per-edge credit loops.
func BenchmarkNetworkSendBurstPod4x8(b *testing.B) {
	spec, err := topo.Preset(topo.PresetPod4x8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := topo.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := interconnect.DefaultConfig(g.NumGPUs(), 32e9)
	cfg.Topology = g
	sendBurst(b, cfg)
}

// BenchmarkQueueWriteDense measures the remote write queue on a dense
// sequential 8B store stream (the best case for coalescing).
func BenchmarkQueueWriteDense(b *testing.B) {
	q, err := core.NewQueue(core.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Write(core.Store{Dst: 1, Addr: uint64(i%4096) * 8, Size: 8}); err != nil {
			b.Fatal(err)
		}
	}
	q.FlushAll(core.CauseDrain)
}

// BenchmarkQueueWriteScattered measures the queue under window-thrashing
// scattered addresses (the CT-like worst case).
func BenchmarkQueueWriteScattered(b *testing.B) {
	q, err := core.NewQueue(core.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	addr := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		if err := q.Write(core.Store{Dst: 1, Addr: addr % (8 << 30), Size: 8}); err != nil {
			b.Fatal(err)
		}
	}
	q.FlushAll(core.CauseDrain)
}

// BenchmarkCoalesceWarp measures L1 warp coalescing of a scattered store.
func BenchmarkCoalesceWarp(b *testing.B) {
	ws := gpusim.WarpStore{Dst: 1, ElemSize: 8}
	for i := 0; i < gpusim.WarpSize; i++ {
		ws.Addrs = append(ws.Addrs, uint64(i)*4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.Coalesce(ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDepacketize measures destination-side disaggregation.
func BenchmarkDepacketize(b *testing.B) {
	cfg := core.DefaultConfig()
	var pkt *core.Packet
	q, err := core.NewQueue(cfg, func(p *core.Packet) { pkt = p })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := q.Write(core.Store{Dst: 1, Addr: uint64(i) * 16, Size: 8}); err != nil {
			b.Fatal(err)
		}
	}
	q.FlushAll(core.CauseDrain)
	if pkt == nil {
		b.Fatal("no packet")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.Depacketize(pkt); len(got) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkWorkloadGenerate times trace generation for the two graph
// workloads, SSSP (a WebLike crawl graph) and PageRank (a CageLike matrix),
// at a finepackd job's size (2 GPUs, scale 0.05, one iteration) and at
// benchParams() on 4 GPUs. Building each CSR graph costs a fixed number of
// allocations whatever its row count, so allocs/op is gated.
func BenchmarkWorkloadGenerate(b *testing.B) {
	job := workloads.Params{Scale: 0.05, Iterations: 1, Seed: 1}
	gens := []workloads.Workload{workloads.NewSSSP(), workloads.NewPagerank()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range gens {
			if _, err := w.Generate(2, job); err != nil {
				b.Fatal(err)
			}
			if _, err := w.Generate(4, benchParams()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEndToEndSSSP measures a full simulator run of the most
// communication-intensive workload under FinePack.
func BenchmarkEndToEndSSSP(b *testing.B) {
	w := workloads.NewSSSP()
	tr, err := w.Generate(4, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(tr, sim.FinePack, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "speedup-x")
	}
}

// BenchmarkMultiHopAllReduce measures a full ring AllReduce across the
// 32-GPU pod4x8 hierarchical preset under FinePack: every step of the
// ring crosses node boundaries somewhere, so the timed loop exercises
// route lookup and per-hop store-and-forward on the multi-hop fabric
// end to end. Sources are stateful, so each iteration gets a fresh one
// (construction is a few map-free allocations, negligible against the
// simulated ring).
func BenchmarkMultiHopAllReduce(b *testing.B) {
	spec, err := topo.Preset(topo.PresetPod4x8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Topology = spec
	cspec := collective.Spec{
		Kind:         collective.RingAllReduce,
		GPUs:         spec.NumGPUs(),
		PayloadBytes: 64 << 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := collective.NewSource(cspec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunSourceObserved(src, sim.FinePack, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InterNodeGoodput(), "inter-goodput")
		b.ReportMetric(float64(res.InterNodeHopBytes), "inter-hop-B")
	}
}

// BenchmarkEndToEndSSSPObserved is the same run with a live observability
// recorder attached: the delta against BenchmarkEndToEndSSSP is the full
// cost of tracing, metrics, and sampling on the enabled path.
func BenchmarkEndToEndSSSPObserved(b *testing.B) {
	w := workloads.NewSSSP()
	tr, err := w.Generate(4, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.New(obs.Config{})
		res, err := sim.RunObserved(tr, sim.FinePack, cfg, rec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "speedup-x")
		b.ReportMetric(float64(rec.EventCount()), "trace-events")
	}
}

// streamSmokeProfile describes the stream-smoke synthesis input: an
// SSSP-flavored training-phase trace of 4 GPUs × 128 iterations × 4096
// warps = 2,097,152 warp stores — ≥100× the largest built-in workload
// (eqwp, 20,736 warp stores at default parameters), which is the
// acceptance scale the streaming engine must cover without materializing.
func streamSmokeProfile() tracestream.Profile {
	return tracestream.Profile{
		Name:              "sssp-synth",
		NumGPUs:           4,
		Iterations:        128,
		Seed:              9,
		ComputeOpsPerIter: 2e7,
		WarpsPerGPUIter:   4096,
		SizeMix: []tracestream.SizeClass{
			{ElemSize: 4, Lanes: 32, Weight: 0.85},
			{ElemSize: 4, Lanes: 8, Weight: 0.15},
		},
		Contiguous:     0.9,
		AtomicFraction: 0.05,
	}
}

// BenchmarkStreamedSSSP synthesizes the stream-smoke trace to a v2 file
// once, then measures a full simulator run fed from that file through
// the chunked reader. B/op here is cumulative churn (the simulator
// allocates per event regardless of input path); the O(window) claim is
// about peak heap, which TestStreamedMemoryCeiling pins in CI.
func BenchmarkStreamedSSSP(b *testing.B) {
	p := streamSmokeProfile()
	path := filepath.Join(b.TempDir(), "stream.fps")
	src, err := tracestream.NewSynthSource(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := tracestream.WriteFile(path, src); err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := tracestream.OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunSourceObserved(f.Source(), sim.FinePack, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "speedup-x")
		b.ReportMetric(float64(p.NumWarpStores()), "warp-stores")
	}
}

// streamSmokePeakCeiling bounds the live heap while the stream-smoke
// trace simulates. Materializing the 2,097,152-warp trace would pin
// ~600 MB (64 M lane addresses alone are 537 MB) before the simulator
// starts; a streamed run holds one iteration window (~4 MB decoded) plus
// simulator state, so a 256 MB ceiling cleanly separates the two — it
// fails if anything on the path starts retaining the whole trace.
const streamSmokePeakCeiling = 256 << 20

// TestStreamedMemoryCeiling is the `make stream-smoke` gate: run the
// ≥100×-eqwp synthesized trace through the full simulator from disk
// while sampling the live heap, and fail if the peak exceeds the
// O(window) ceiling. Opt-in via STREAM_SMOKE=1 because the run simulates
// two million warp stores (~15 s): too heavy for the default tier-1
// suite, exactly right for its own CI step.
func TestStreamedMemoryCeiling(t *testing.T) {
	if os.Getenv("STREAM_SMOKE") == "" {
		t.Skip("set STREAM_SMOKE=1 (make stream-smoke) to run the streaming memory gate")
	}
	p := streamSmokeProfile()

	// The acceptance scale is relative to the built-ins: recompute the
	// largest one so workload growth cannot silently shrink the margin.
	largest := uint64(0)
	for _, w := range workloads.All() {
		tr, err := w.Generate(4, workloads.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if n := tr.NumWarpStores(); n > largest {
			largest = n
		}
	}
	if p.NumWarpStores() < 100*largest {
		t.Fatalf("smoke profile has %d warp stores; need ≥100× the largest built-in workload (%d)",
			p.NumWarpStores(), largest)
	}

	path := filepath.Join(t.TempDir(), "stream.fps")
	src, err := tracestream.NewSynthSource(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracestream.WriteFile(path, src); err != nil {
		t.Fatal(err)
	}

	// Sample the live heap while the run streams. ReadMemStats
	// stop-the-world pauses are microseconds at this cadence.
	stop := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peakc <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()

	f, err := tracestream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSourceObserved(f.Source(), sim.FinePack, sim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	peak := <-peakc

	t.Logf("streamed %d warp stores (%.0f× largest built-in): peak heap %d MB, speedup %.2fx",
		p.NumWarpStores(), float64(p.NumWarpStores())/float64(largest), peak>>20, res.Speedup())
	if peak > streamSmokePeakCeiling {
		t.Fatalf("peak heap %d bytes exceeds the %d-byte O(window) ceiling — something on the streaming path retains the trace",
			peak, streamSmokePeakCeiling)
	}
}
