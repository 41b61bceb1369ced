package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"finepack/internal/des"
	"finepack/internal/obs"
	"finepack/internal/sim"
	"finepack/internal/workloads"
)

// smallSuite keeps concurrency tests fast: the goal is interleaving, not
// statistical fidelity.
func smallSuite() *Suite {
	return New(sim.DefaultConfig(), workloads.Params{Scale: 0.1, Iterations: 1, Seed: 7}, 4)
}

// TestSuiteConcurrentAccess hammers the singleflight caches from many
// goroutines asking for overlapping traces and runs. Run under -race (CI
// does), it verifies the locking discipline; the pointer comparisons
// verify deduplication — every requester of a key must observe the one
// settled execution, never a duplicate.
func TestSuiteConcurrentAccess(t *testing.T) {
	s := smallSuite()
	s.Parallelism = 8
	names := []string{"sssp", "ct", "jacobi"}
	pars := []sim.Paradigm{sim.P2P, sim.FinePack}

	const loops = 4
	var wg sync.WaitGroup
	results := make([][]*sim.Result, loops)
	for g := 0; g < loops; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range names {
				if _, err := s.Trace(name, s.NumGPUs); err != nil {
					t.Error(err)
					return
				}
				for _, par := range pars {
					res, err := s.Run(name, par)
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < loops; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d saw %d results, want %d", g, len(results[g]), len(results[0]))
		}
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Errorf("goroutine %d result %d is a distinct object: singleflight cache duplicated a run", g, i)
			}
		}
	}
}

// TestTraceConcurrentDedup checks that a stampede of goroutines asking for
// the same not-yet-generated trace shares one generation.
func TestTraceConcurrentDedup(t *testing.T) {
	s := smallSuite()
	const stampede = 16
	var wg sync.WaitGroup
	traces := make([]any, stampede)
	for g := 0; g < stampede; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, err := s.Trace("hit", s.NumGPUs)
			if err != nil {
				t.Error(err)
				return
			}
			traces[g] = tr
		}(g)
	}
	wg.Wait()
	for g := 1; g < stampede; g++ {
		if traces[g] != traces[0] {
			t.Fatalf("goroutine %d got a distinct trace object", g)
		}
	}
}

// TestParallelReportMatchesSerial is the hard constraint of the parallel
// engine: the full report generated with an 8-wide worker pool must be
// byte-identical to the serial one. Rows are assembled in workload order
// from cached deterministic results, never in completion order, so any
// divergence here means ordering leaked through the cache.
func TestParallelReportMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	serial := smallSuite()
	serial.Parallelism = 1
	var want bytes.Buffer
	if err := serial.WriteReport(context.Background(), &want); err != nil {
		t.Fatal(err)
	}

	par := smallSuite()
	par.Parallelism = 8
	var got bytes.Buffer
	if err := par.WriteReport(context.Background(), &got); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		wl, gl := bytes.Split(want.Bytes(), []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if !bytes.Equal(wl[i], gl[i]) {
				t.Fatalf("parallel report diverges from serial at line %d:\nserial:   %q\nparallel: %q", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("parallel report length %d != serial %d", got.Len(), want.Len())
	}
}

// TestObservedParallelRunsOwnSinks hammers tracing-enabled parallel
// execution: concurrent ObservedRun calls across overlapping (workload,
// paradigm) pairs must never share a recorder. Run under -race (CI does),
// it catches any sink shared across runs; the byte comparison against a
// serial rendering of the same run proves each goroutine got a complete,
// deterministic artifact rather than an interleaved one.
func TestObservedParallelRunsOwnSinks(t *testing.T) {
	s := smallSuite()
	jobs := []struct {
		name string
		par  sim.Paradigm
	}{
		{"sssp", sim.FinePack},
		{"sssp", sim.P2P},
		{"jacobi", sim.FinePack},
		{"ct", sim.FinePack},
	}
	oc := obs.Config{SampleEvery: 2 * des.Microsecond, MaxEvents: 1 << 14}

	// Serial reference artifacts, one per job.
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		_, rec, err := s.ObservedRun(context.Background(), j.name, j.par, oc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}

	const loops = 4
	var wg sync.WaitGroup
	for g := 0; g < loops; g++ {
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, name string, par sim.Paradigm) {
				defer wg.Done()
				_, rec, err := s.ObservedRun(context.Background(), name, par, oc)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := rec.WriteTrace(&buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("%s/%v: parallel observed trace diverged from serial", name, par)
				}
			}(i, j.name, j.par)
		}
	}
	wg.Wait()
}

// TestResultCacheKeysWholeConfig checks that the result cache tells apart
// configs differing in any field, not just the ones today's sweeps vary:
// a run with fewer emission batches must get its own result, equal to an
// uncached run of the same config.
func TestResultCacheKeysWholeConfig(t *testing.T) {
	s := smallSuite()
	base, err := s.Run("sssp", sim.FinePack)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Cfg
	cfg.EmissionBatches = 8
	got, err := s.runWith("sssp", s.NumGPUs, sim.FinePack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace("sssp", s.NumGPUs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(tr, sim.FinePack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got == base || got.Time != want.Time {
		t.Fatalf("EmissionBatches 8 run took %v (cached base run %v), uncached %v",
			got.Time, base.Time, want.Time)
	}
	if want.Time == base.Time {
		t.Fatalf("EmissionBatches does not change the run (%v both): the check shows nothing", want.Time)
	}
}
