package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"finepack/internal/des"
	"finepack/internal/experiments"
	"finepack/internal/obs"
	"finepack/internal/serve"
	"finepack/internal/sim"
)

// Observability flags for the "observe" verb: one instrumented run whose
// trace, metrics, and utilization timeline are written as files.
var (
	traceJSON   string
	metricsOut  string
	timelineSVG string
	obsWorkload string
	obsParadigm string
	obsSampleUs float64
)

func registerObserveFlags() {
	flag.StringVar(&traceJSON, "trace-json", "", "observe: write a Chrome/Perfetto trace-event JSON file")
	flag.StringVar(&metricsOut, "metrics-out", "", "observe: write a Prometheus text-exposition metrics file")
	flag.StringVar(&timelineSVG, "timeline-svg", "", "observe: write an egress-utilization timeline SVG")
	flag.StringVar(&obsWorkload, "trace-workload", "sssp", "observe: workload to instrument")
	flag.StringVar(&obsParadigm, "trace-paradigm", "finepack", "observe: paradigm to instrument")
	flag.Float64Var(&obsSampleUs, "obs-sample-us", 0, "observe: sampler interval in microseconds (0 = default 1us)")
}

// showObserve runs one instrumented simulation and writes whichever
// artifacts were requested. Each artifact is rendered to memory, validated
// (the trace must be a loadable trace-event array; the metrics must
// round-trip byte-identically through ParseExposition), and only then
// written — so a zero exit status certifies well-formed output, which is
// what the CI smoke step relies on.
func showObserve(s *experiments.Suite) error {
	par, err := sim.ParadigmFromString(obsParadigm)
	if err != nil {
		return err
	}
	oc := obs.Config{SampleEvery: des.Time(obsSampleUs * float64(des.Microsecond))}
	res, rec, err := s.ObservedRun(context.Background(), obsWorkload, par, oc)
	if err != nil {
		return err
	}
	// The summary table definition is shared with the finepackd daemon
	// (serve.ObserveTable), keeping CLI output and the service's report
	// artifact byte-identical by construction.
	if err := render(serve.ObserveTable(obsWorkload, par, res, rec)); err != nil {
		return err
	}
	if traceJSON != "" {
		if err := writeObsArtifact(traceJSON, rec.WriteTrace, validateTraceJSON); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := writeObsArtifact(metricsOut, rec.WriteMetrics, validateExposition); err != nil {
			return err
		}
	}
	if timelineSVG != "" {
		if err := writeObsArtifact(timelineSVG, rec.WriteTimelineSVG, nil); err != nil {
			return err
		}
	}
	return nil
}

// writeObsArtifact renders into memory, validates, then writes the file.
func writeObsArtifact(path string, renderFn func(io.Writer) error, validate func([]byte) error) error {
	var buf bytes.Buffer
	if err := renderFn(&buf); err != nil {
		return err
	}
	if validate != nil {
		if err := validate(buf.Bytes()); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

func validateTraceJSON(b []byte) error {
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		return fmt.Errorf("not a valid trace-event JSON array: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("trace-event array is empty")
	}
	return nil
}

func validateExposition(b []byte) error {
	exp, err := obs.ParseExposition(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("exposition does not parse: %w", err)
	}
	var again bytes.Buffer
	if err := exp.Write(&again); err != nil {
		return err
	}
	if !bytes.Equal(b, again.Bytes()) {
		return fmt.Errorf("exposition does not round-trip byte-identically")
	}
	return nil
}
