package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"finepack/internal/core"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/store"
)

// ledgerLayers are the modules the per-layer ledger always reports a CPU
// share for, 0 when a workload never enters them. "other" is everything
// outside the repository and the Go runtime (net/http, syscall, crypto).
var ledgerLayers = []string{"des", "runtime", "core", "gpusim", "interconnect", "topo", "memsystem",
	"sim", "tracestream", "collective", "workloads", "datasets", "obs", "serve", "store", "other"}

// observedMaxEvents caps each observed run's trace buffer: the counters,
// histograms and sampled series stay complete, only trace events past the
// cap are counted as dropped instead of held (a full buffer is ~200 MB).
const observedMaxEvents = 1 << 16

// layerRecord collects the traced run's per-layer counters and timings.
type layerRecord struct {
	// all sums the registries of every observed run, fp those of the
	// FinePack runs (the only ones whose packets come from core.Queue).
	all, fp       registryCounts
	interHopBytes float64
	egressUtil    mean
	creditWaiters mean
	traceEvents   float64

	// Time spent inside sources' Next, via benchmark-side wrappers.
	streamNext, mixNext time.Duration
	streamBytes         float64
	// Set-up work timed by the workload (seconds; 0 when not done).
	generate, write float64

	lat   map[string][]float64
	store *store.Stats

	// observedWall is the observed pass's wall time and the profiled
	// passes' median its plain reference, unless plainWall is set: the
	// daemon's replay sets both from its own plain and observed job runs.
	observedWall, plainWall float64

	replay replayStats
}

func newLayerRecord() *layerRecord {
	return &layerRecord{all: newRegistryCounts(), fp: newRegistryCounts(), lat: map[string][]float64{}}
}

type mean struct{ sum, n float64 }

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// addRun folds one observed simulator run into the record.
func (l *layerRecord) addRun(res *sim.Result, rec *obs.Recorder) error {
	e := rec.Metrics().Snapshot()
	if err := l.addRegistry(e, res.Paradigm == sim.FinePack); err != nil {
		return err
	}
	l.interHopBytes += float64(res.InterNodeHopBytes)
	l.traceEvents += float64(rec.EventCount()) + float64(rec.DroppedEvents())
	// The links that carry traffic are the GPUs' egress ports on the flat
	// fabric and the topology's edges ("edge <label> util") on a multi-hop
	// one, where the GPU ports stay idle.
	multiHop := res.Topology != ""
	for _, s := range rec.SeriesList() {
		var m *mean
		switch {
		case !multiHop && strings.HasPrefix(s.Name, "egress util"),
			multiHop && strings.HasPrefix(s.Name, "edge "):
			m = &l.egressUtil
		case strings.HasPrefix(s.Name, "credit waiters"):
			m = &l.creditWaiters
		default:
			continue
		}
		for _, v := range s.V {
			m.add(v)
		}
	}
	return nil
}

func (l *layerRecord) addRegistry(e *obs.Exposition, finepack bool) error {
	if err := l.all.add(e); err != nil {
		return err
	}
	if finepack {
		return l.fp.add(e)
	}
	return nil
}

// registryCounts sums the obs metric families the ledger reads.
type registryCounts struct {
	samples map[string]float64 // by sample name, across labels
	flushes map[string]float64 // finepack_queue_flushes_total by cause
}

func newRegistryCounts() registryCounts {
	return registryCounts{samples: map[string]float64{}, flushes: map[string]float64{}}
}

func (c registryCounts) add(e *obs.Exposition) error {
	for _, f := range e.Families {
		for _, s := range f.Samples {
			if f.Type == "gauge" {
				continue
			}
			v, err := strconv.ParseFloat(s.Value, 64)
			if err != nil {
				return fmt.Errorf("metric %s: %w", s.Name, err)
			}
			c.samples[s.Name] += v
			if s.Name == "finepack_queue_flushes_total" {
				for _, lb := range s.Labels {
					if lb.Key == "cause" {
						c.flushes[lb.Value] += v
					}
				}
			}
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics assembles the per-layer metrics from the profiled passes' costs,
// the profile shares and the record. pass_s, the profiled passes' median
// wall time, is here too: between runs on a shared machine it spreads
// wider than any bound the end-to-end list may set.
func (l *layerRecord) metrics(m metrics, stats []passStats, cpu, allocs map[string]float64) {
	for _, layer := range ledgerLayers {
		m.set(layer+".cpu_pct", cpu[layer], "%")
		m.set(layer+".alloc_pct", allocs[layer], "%")
	}
	for layer, v := range cpu {
		m.set(layer+".cpu_pct", v, "%")
	}
	for layer, v := range allocs {
		m.set(layer+".alloc_pct", v, "%")
	}

	walls := column(stats, func(s passStats) float64 { return s.wall })
	m.setSamples("pass_s", walls, "s")
	wall := summarize(walls).Med
	events := l.all.samples["finepack_sched_events_total"]
	m.set("des.events", events, "count")
	m.set("des.ns_per_event", ratio(wall*1e9, events), "ns")
	m.set("runtime.gc_cycles", summarize(column(stats, func(s passStats) float64 { return s.gcCycles })).Med, "count")
	m.set("runtime.gc_pause_ms", summarize(column(stats, func(s passStats) float64 { return s.gcPause })).Med, "ms")

	r := l.replay
	packets := 0.0
	for _, v := range l.fp.flushes {
		packets += v
	}
	m.set("core.packets", packets, "count")
	m.set("core.stores_per_packet", ratio(l.fp.samples["finepack_flush_stores_merged_sum"],
		l.fp.samples["finepack_flush_stores_merged_count"]), "stores/packet")
	for c := 0; c < core.NumFlushCauses; c++ {
		name := core.FlushCause(c).String()
		m.set("core.flush_pct."+name, 100*ratio(l.fp.flushes[name], packets), "%")
	}
	m.set("core.write_ns_per_store", ratio(float64(r.write), r.stores), "ns")
	m.set("core.depacketize_ns_per_packet", ratio(float64(r.depacketize), r.packets), "ns")

	m.set("gpusim.warps", l.all.samples["finepack_warps_total"], "count")
	m.set("gpusim.tx_per_warp", ratio(l.all.samples["finepack_warp_transactions_sum"],
		l.all.samples["finepack_warp_transactions_count"]), "tx/warp")
	m.set("gpusim.coalesce_ns_per_warp", ratio(float64(r.coalesce), r.warps), "ns")

	m.set("interconnect.messages", l.all.samples["finepack_messages_delivered_total"], "count")
	m.set("interconnect.wire_mb", l.all.samples["finepack_link_bytes_total"]/(1<<20), "MB")
	m.set("interconnect.replays", l.all.samples["finepack_replays_total"], "count")
	m.set("interconnect.send_ns_per_msg", ratio(float64(r.send), r.packets), "ns")
	if l.egressUtil.n > 0 {
		m.set("interconnect.egress_util", l.egressUtil.value(), "fraction")
		m.set("interconnect.credit_waiters", l.creditWaiters.value(), "count")
	}

	m.set("topo.edge_hops", l.all.samples["finepack_edge_hops_total"], "count")
	m.set("topo.inter_hop_mb", l.interHopBytes/(1<<20), "MB")
	if r.routes > 0 {
		m.set("topo.route_ns", ratio(float64(r.route), r.routes), "ns")
	}

	if l.streamNext > 0 {
		m.set("tracestream.next_s", l.streamNext.Seconds(), "s")
	}
	if l.streamBytes > 0 {
		m.set("tracestream.read_mb_per_s", ratio(l.streamBytes/(1<<20), l.streamNext.Seconds()), "MB/s")
	}
	if l.write > 0 {
		m.set("tracestream.write_s", l.write, "s")
	}
	if l.mixNext > 0 {
		m.set("collective.next_s", (l.mixNext - l.streamNext).Seconds(), "s")
	}
	if l.generate > 0 {
		m.set("workloads.generate_s", l.generate, "s")
	}

	plain := l.plainWall
	observed := l.observedWall
	if plain == 0 {
		plain = wall
	}
	m.set("obs.overhead_pct", 100*(ratio(observed, plain)-1), "%")
	m.set("obs.trace_events", l.traceEvents, "count")

	for _, name := range []string{"submit", "wait", "artifact"} {
		if xs := l.lat["serve."+name+"_ms"]; len(xs) > 0 {
			m[fmt.Sprintf("serve.%s_ms_p50", name)] = metric{Value: summarize(xs).Med, Unit: "ms", N: len(xs)}
		}
	}
	var st store.Stats
	if l.store != nil {
		st = *l.store
	}
	m.set("store.wal_bytes", float64(st.WALBytes), "bytes")
	m.set("store.artifact_bytes", float64(st.ArtifactBytes), "bytes")
}

// profileShares runs `go tool pprof -top` on a profile (as the difference
// from base when base is set, by allocated bytes) and returns each
// layer's share of the flat samples in percent.
func profileShares(path, base string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}
	if base != "" {
		args = append(args, "-sample_index=alloc_space", "-base", base)
	}
	args = append(args, path)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return groupTop(string(out))
}

// groupTop sums the flat column of a `pprof -top` listing by layer and
// returns the shares in percent (empty when the profile has no samples).
func groupTop(out string) (map[string]float64, error) {
	totals := map[string]float64{}
	var sum float64
	table := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseQuantity(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		totals[layerOf(strings.Join(f[5:], " "))] += v
		sum += v
	}
	if !table {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	shares := map[string]float64{}
	for k, v := range totals {
		if sum > 0 {
			shares[k] = 100 * v / sum
		}
	}
	return shares, nil
}

// unitScale converts pprof's printed units to nanoseconds or bytes.
var unitScale = map[string]float64{
	"": 1, "ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "min": 60e9, "hrs": 3600e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
}

func parseQuantity(s string) (float64, error) {
	i := len(s)
	for i > 0 && (s[i-1] < '0' || s[i-1] > '9') && s[i-1] != '.' {
		i--
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	scale, ok := unitScale[s[i:]]
	if !ok {
		return 0, fmt.Errorf("unknown unit %q", s[i:])
	}
	return v * scale, nil
}

// layerOf maps a profiled function to the layer it belongs to: the
// repository's module name for finepack/internal/<module>, "runtime" for
// the Go runtime (including internal/runtime/* and assembly stubs such as
// gcWriteBarrier), "bench" for this benchmark, "other" for the rest.
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may contain paths
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return "runtime"
	}
	pkg := fn[:slash+dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "runtime"
	case strings.HasPrefix(pkg, "finepack/internal/"):
		return strings.TrimPrefix(pkg, "finepack/internal/")
	case pkg == "main":
		return "bench"
	}
	return "other"
}
