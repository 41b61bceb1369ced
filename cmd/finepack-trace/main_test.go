package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"finepack/internal/trace"
	"finepack/internal/tracestream"
)

func TestGenInfoHistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.fps")
	err := gen([]string{
		"-workload", "pagerank", "-o", path,
		"-gpus", "4", "-scale", "0.1", "-iters", "1", "-seed", "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := tracestream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if m := f.Meta(); m.Name != "pagerank" || m.NumGPUs != 4 {
		t.Fatalf("trace header %+v", m)
	}
	if err := info(f); err != nil {
		t.Fatal(err)
	}
	if err := withTrace([]string{path}, hist); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed replay skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "w.trace")
	if err := gen([]string{"-workload", "jacobi", "-o", path, "-scale", "0.2", "-iters", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-paradigm", "finepack", path}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-paradigm", "nope", path}); err == nil {
		t.Fatal("unknown paradigm accepted")
	}
	if err := replay([]string{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGenValidation(t *testing.T) {
	if err := gen([]string{"-workload", "pagerank"}); err == nil {
		t.Fatal("missing -o accepted")
	}
	if err := gen([]string{"-o", "/tmp/x"}); err == nil {
		t.Fatal("missing -workload accepted")
	}
	if err := gen([]string{"-workload", "nope", "-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWithTraceErrors(t *testing.T) {
	if err := withTrace(nil, func(*trace.Trace) error { return nil }); err == nil {
		t.Fatal("no args accepted")
	}
	if err := withTrace([]string{"/does/not/exist"}, func(*trace.Trace) error { return nil }); err == nil {
		t.Fatal("missing file accepted")
	}
	// A file in another encoding (here the head of a v1 gob trace) is
	// rejected as not a v2 stream, by every command that reads traces.
	path := filepath.Join(t.TempDir(), "v1.trace")
	if err := os.WriteFile(path, []byte("\x14\f\x00\x11finepack-trace-v1O\x7f\x03\x01\x01\x05Trace\x01\xff\x80\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	nop := func(*trace.Trace) error { return nil }
	for name, err := range map[string]error{
		"info":   infoCmd([]string{path}),
		"hist":   withTrace([]string{path}, nop),
		"replay": replay([]string{path}),
	} {
		if !errors.Is(err, tracestream.ErrNotStream) {
			t.Errorf("%s: err = %v, want ErrNotStream", name, err)
		}
	}
}
