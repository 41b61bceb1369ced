package main

import (
	"flag"
	"fmt"
	"os"

	"finepack/internal/experiments"
	"finepack/internal/sim"
	"finepack/internal/stats"
	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

// stream experiment flags: exactly one input selects the source.
var (
	streamTrace    string // v2 trace file, streamed window by window
	streamSynth    string // synthesis profile JSON, expanded on the fly
	streamParadigm string
)

func registerStreamFlags() {
	flag.StringVar(&streamTrace, "stream-trace", "", "stream: v2 trace file to replay")
	flag.StringVar(&streamSynth, "stream-synth", "", "stream: synthesis profile JSON to expand and replay")
	flag.StringVar(&streamParadigm, "stream-paradigm", "finepack", "stream: paradigm to simulate")
}

// showStream runs one simulation fed by an iteration source instead of a
// generated workload: an on-disk trace streams window-at-a-time, a
// synthesis profile regenerates each window from its seed — either way
// the simulator holds one iteration in memory, so inputs far larger than
// any built-in workload fit (the ≥100×-eqwp acceptance run goes through
// here).
func showStream(*experiments.Suite) error {
	par, err := sim.ParadigmFromString(streamParadigm)
	if err != nil {
		return err
	}
	var (
		src    trace.IterationSource
		closer = func() error { return nil }
	)
	switch {
	case streamTrace != "" && streamSynth != "":
		return fmt.Errorf("stream takes -stream-trace or -stream-synth, not both")
	case streamTrace != "":
		var f *tracestream.File
		if f, err = tracestream.OpenFile(streamTrace); err == nil {
			src, closer = f.Source(), f.Close
		}
	case streamSynth != "":
		var f *os.File
		if f, err = os.Open(streamSynth); err != nil {
			return err
		}
		var p *tracestream.Profile
		p, err = tracestream.ParseProfile(f)
		f.Close()
		if err != nil {
			return err
		}
		src, err = tracestream.NewSynthSource(*p)
	default:
		return fmt.Errorf("stream requires -stream-trace or -stream-synth")
	}
	if err != nil {
		return err
	}
	defer closer()

	m := src.Meta()
	cfg := sim.DefaultConfig()
	cfg.Topology = resolvedTopo
	res, err := sim.RunSource(src, par, cfg)
	if err != nil {
		return err
	}
	t := stats.NewTable(
		fmt.Sprintf("streamed run of %s (%d GPUs, %d iterations)", m.Name, m.NumGPUs, m.Iterations),
		"paradigm", "time", "speedup", "wire bytes", "packets")
	t.AddRow(par.String(), res.Time.String(),
		fmt.Sprintf("%.2fx", res.Speedup()), res.WireBytes, res.Packets)
	return emit("stream", res, t)
}
