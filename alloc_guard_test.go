package finepack_test

import (
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/gpusim"
)

// TestObsDisabledQueueWriteAllocFree pins the allocation contract the
// observability hooks must not erode: with no recorder attached, the dense
// remote-write-queue hot path stays allocation-free per store, exactly as
// BenchmarkQueueWriteDense established before internal/obs existed. A
// regression here means an instrumentation site put work on the disabled
// path.
func TestObsDisabledQueueWriteAllocFree(t *testing.T) {
	q, err := core.NewQueue(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var werr error
	allocs := testing.AllocsPerRun(8192, func() {
		if err := q.Write(core.Store{Dst: 1, Addr: uint64(i%4096) * 8, Size: 8}); err != nil {
			werr = err
		}
		i++
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if allocs != 0 {
		t.Fatalf("obs-disabled dense queue write allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSchedulerSteadyStateAllocFree pins the scheduler hot loop's
// allocation contract: with no probe attached, steady-state schedule+fire
// (a batch of After calls, then Run to drain) allocates nothing at all.
// Fired events go back to the scheduler's pool and the calendar's buckets
// keep their storage, so once warm-up has grown both, nothing is carved or
// regrown. Each measured run is a whole 512-event batch, because
// testing.AllocsPerRun truncates its average to a whole number: per
// event, one slab carve per 256 events would round down to zero. A
// regression here means a closure, interface box, or slice grew onto the
// per-event path, or an event stopped being recycled.
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	s := des.NewScheduler()
	nop := func() {}
	batch := func() {
		for i := 0; i < 512; i++ {
			s.After(des.Time(i%64)*des.Nanosecond, des.Func(nop))
		}
		s.Run()
	}
	// Warm up on the measured pattern itself, long enough for the clock to
	// sweep the whole calendar ring several times: every bucket, the cohort
	// slice, and the event pool reach their steady-state capacity.
	for i := 0; i < 128; i++ {
		batch()
	}
	if allocs := testing.AllocsPerRun(64, batch); allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.0f times per 512 events, want 0", allocs)
	}
}

// TestObsDisabledCoalesceAllocParity checks the observed coalescing entry
// point costs nothing extra when no observer is attached: CoalesceObserved
// with a nil observer must allocate exactly what plain Coalesce does.
func TestObsDisabledCoalesceAllocParity(t *testing.T) {
	ws := gpusim.WarpStore{Dst: 1, ElemSize: 8}
	for i := 0; i < gpusim.WarpSize; i++ {
		ws.Addrs = append(ws.Addrs, uint64(i)*4096)
	}
	var cerr error
	plain := testing.AllocsPerRun(2048, func() {
		if _, err := gpusim.Coalesce(ws); err != nil {
			cerr = err
		}
	})
	observed := testing.AllocsPerRun(2048, func() {
		if _, err := gpusim.CoalesceObserved(ws, nil); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if observed != plain {
		t.Fatalf("CoalesceObserved(nil) allocates %.1f allocs/op, plain Coalesce %.1f — nil-observer path must be free",
			observed, plain)
	}
}
