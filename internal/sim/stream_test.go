package sim

import (
	"bytes"
	"reflect"
	"testing"

	"finepack/internal/trace"
	"finepack/internal/tracestream"
	"finepack/internal/workloads"
)

// streamTestParadigms covers every modeled paradigm; byte-identity must
// hold for all of them, not just the headline ones.
var streamTestParadigms = []Paradigm{
	P2P, DMA, FinePack, WriteCombining, GPS, UM, RemoteRead, Infinite,
}

// TestSourceMatchesSlice: every built-in workload produces a Result
// deep-equal to the slice path when run (a) through an in-memory source
// and (b) through a full v2 encode/decode round trip — the streaming
// engine is observationally invisible.
func TestSourceMatchesSlice(t *testing.T) {
	cfg := DefaultConfig()
	params := workloads.Params{Scale: 0.25, Iterations: 2, Seed: 1}
	for _, w := range workloads.All() {
		tr, err := w.Generate(4, params)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		var buf bytes.Buffer
		if err := tracestream.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("%s: encode: %v", w.Name(), err)
		}
		for _, par := range streamTestParadigms {
			want, err := Run(tr, par, cfg)
			if err != nil {
				t.Fatalf("%s/%s: slice run: %v", w.Name(), par, err)
			}
			got, err := RunSourceObserved(trace.NewSliceSource(tr), par, cfg, nil)
			if err != nil {
				t.Fatalf("%s/%s: source run: %v", w.Name(), par, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: slice-source result diverges:\nslice:  %+v\nsource: %+v",
					w.Name(), par, want, got)
			}
			r, err := tracestream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatalf("%s: reopen: %v", w.Name(), err)
			}
			streamed, err := RunSourceObserved(r.Source(), par, cfg, nil)
			if err != nil {
				t.Fatalf("%s/%s: streamed run: %v", w.Name(), par, err)
			}
			if !reflect.DeepEqual(want, streamed) {
				t.Errorf("%s/%s: v2-streamed result diverges:\nslice:    %+v\nstreamed: %+v",
					w.Name(), par, want, streamed)
			}
		}
	}
}

// TestSynthRepeatRunIdentity: the same synthesis profile simulated twice
// yields deep-equal results — seeded synthesis is a deterministic
// experiment input, like a stored trace.
func TestSynthRepeatRunIdentity(t *testing.T) {
	p := tracestream.Profile{
		Name:              "synth-repeat",
		NumGPUs:           4,
		Iterations:        3,
		Seed:              42,
		ComputeOpsPerIter: 5e6,
		WarpsPerGPUIter:   512,
		Contiguous:        0.5,
		AtomicFraction:    0.2,
	}
	cfg := DefaultConfig()
	run := func() *Result {
		t.Helper()
		src, err := tracestream.NewSynthSource(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSourceObserved(src, FinePack, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat synthesis runs diverge:\n1st: %+v\n2nd: %+v", a, b)
	}
	// And via the on-disk detour: synthesize → v2 bytes → stream → same
	// result again.
	src, err := tracestream.NewSynthSource(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracestream.CopySource(&buf, src); err != nil {
		t.Fatal(err)
	}
	r, err := tracestream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunSourceObserved(r.Source(), FinePack, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("synthesized-then-streamed run diverges:\nlive:     %+v\nstreamed: %+v", a, c)
	}
}
