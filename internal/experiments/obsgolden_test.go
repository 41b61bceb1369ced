package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"finepack/internal/des"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/workloads"
)

// obsGoldenSuite pins the exact run behind the trace fixture: tiny scale
// and a low MaxEvents cap keep testdata small while still exercising
// spans, instants, counters, and the drop path.
func obsGoldenSuite() *Suite {
	return New(sim.DefaultConfig(),
		workloads.Params{Scale: 0.1, Iterations: 1, Seed: 7}, 4)
}

func obsGoldenConfig() obs.Config {
	return obs.Config{SampleEvery: 2 * des.Microsecond, MaxEvents: 512}
}

func renderObsGolden(t *testing.T) (traceJSON, metrics []byte) {
	t.Helper()
	_, rec, err := obsGoldenSuite().ObservedRun(context.Background(), "sssp", sim.FinePack, obsGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tb, mb bytes.Buffer
	if err := rec.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestGoldenTraceFixture pins the Perfetto trace of a small seeded run
// byte-for-byte. Drift means the model or the tracer changed; intentional
// changes regenerate with
// `go test ./internal/experiments -run TestGoldenTrace -update`.
func TestGoldenTraceFixture(t *testing.T) {
	got, _ := renderObsGolden(t)
	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace drifted from golden fixture (regenerate with -update if intended); got %d bytes, want %d",
			len(got), len(want))
	}
	// The fixture must stay a loadable trace-event array.
	var events []map[string]any
	if err := json.Unmarshal(want, &events); err != nil {
		t.Fatalf("golden trace is not valid trace-event JSON: %v", err)
	}
}

// TestObservedRepeatRunByteIdentity mirrors TestParallelReportMatchesSerial
// for observability artifacts: repeating the same seeded observed run must
// reproduce the trace and metrics files byte-for-byte.
func TestObservedRepeatRunByteIdentity(t *testing.T) {
	t1, m1 := renderObsGolden(t)
	t2, m2 := renderObsGolden(t)
	if !bytes.Equal(t1, t2) {
		t.Fatal("repeat runs produced different trace bytes")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("repeat runs produced different metrics bytes")
	}
	parsed, err := obs.ParseExposition(bytes.NewReader(m1))
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	var again bytes.Buffer
	if err := parsed.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, again.Bytes()) {
		t.Fatal("metrics exposition does not round-trip byte-identically")
	}
}
