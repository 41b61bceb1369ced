package main

import (
	"os"
	"testing"
)

func TestGroupTopByLayer(t *testing.T) {
	b, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := groupTop(string(b))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		// RunBudget; a method.
		"des": 30,
		// mallocgc, the gcWriteBarrier stub, internal/runtime/maps,
		// runtime.gcWriteBarrier2, runtime/internal/atomic, [vdso].
		"runtime": 27.5,
		// a .func1 closure of a method.
		"sim": 10,
		// an inlined frame.
		"core":   7.5,
		"gpusim": 5,
		// slices (generic, with a path in its type arguments), syscall,
		// net/http.
		"other":        8.75,
		"interconnect": 3.75,
		"bench":        2.5,
		"topo":         2.5,
		"obs":          2.5,
	}
	sum := 0.0
	for layer, v := range shares {
		sum += v
		if !near(v, want[layer]) {
			t.Errorf("%s share = %g%%, want %g%%", layer, v, want[layer])
		}
	}
	if len(shares) != len(want) {
		t.Errorf("layers %v, want %v", shares, want)
	}
	if !near(sum, 100) {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestGroupTopRejectsOtherOutput(t *testing.T) {
	if _, err := groupTop("no profile here\n"); err == nil {
		t.Error("accepted output without a -top table")
	}
	if _, err := groupTop("      flat  flat%   sum%        cum   cum%\n  3parsecs 1% 1% 3parsecs 1%  main.f\n"); err == nil {
		t.Error("accepted an unknown unit")
	}
}

func TestParseQuantity(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "1.50s": 1.5e9, "10ms": 1e7, "250us": 2.5e5, "3ns": 3,
		"512kB": 512 << 10, "1.5MB": 1.5 * (1 << 20), "2GB": 2 << 30, "100B": 100,
	} {
		got, err := parseQuantity(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseQuantity(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
}
