package sim

import (
	"testing"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/gpusim"
	"finepack/internal/trace"
)

// recordingEgress records what an emitter hands its engine.
type recordingEgress struct {
	got       []uint64 // store addresses, in emission order
	flushedAt int      // len(got) when the flush came; -1 before it
}

func (e *recordingEgress) store(st core.Store) error {
	e.got = append(e.got, st.Addr)
	return nil
}

func (e *recordingEgress) atomic(st core.Store) error { return e.store(st) }

func (e *recordingEgress) flush(done func()) {
	e.flushedAt = len(e.got)
	done()
}

func (e *recordingEgress) accumulate(*Result) {}
func (e *recordingEgress) pendingStores() int { return 0 }

// TestEmitterBatchCursor replays windows through GPU 0's emitter and
// requires every warp store to reach the engine exactly once, in program
// order, before the kernel-end flush, and the window's barrier to be
// crossed once, a barrier latency after the kernel ends. The zero-compute
// window schedules
// all 64 batches at the window's start, so only the scheduler's tie order
// keeps the batch cursor in step; the short window has fewer stores than
// batches. Each window runs twice on the same emitter, as consecutive
// iterations do.
func TestEmitterBatchCursor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stores int
		tc     des.Time
	}{
		{"zero-compute", 200, 0},
		{"fewer-stores-than-batches", 3, des.Microsecond},
		{"spread", 200, des.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			r := &runner{sched: des.NewScheduler(), cfg: cfg, par: P2P,
				meta: trace.Meta{NumGPUs: 2}, res: &Result{}}
			if err := r.setup(); err != nil {
				t.Fatal(err)
			}
			rec := &recordingEgress{}
			r.emitters[0].e = rec
			var w trace.GPUWork
			for i := 0; i < tc.stores; i++ {
				w.Stores = append(w.Stores, gpusim.WarpStore{
					Dst: 1, ElemSize: 4, Addrs: []uint64{uint64(i) << 12}, Atomic: i%5 == 4})
			}
			for window := 0; window < 2; window++ {
				rec.got, rec.flushedAt = rec.got[:0], -1
				// GPU 0 alone stands at the barrier; with no iterations
				// left, crossing it ends the run.
				r.kernels, r.drains, r.barrierAt, r.drainsAt = 1, 1, 0, 0
				r.finished = false
				t0 := r.sched.Now()
				r.scheduleStores(0, w, t0, tc.tc)
				r.sched.Run()
				if !r.finished || r.kernels != 0 || r.drains != 0 {
					t.Fatalf("window %d: finished=%v with %d kernels running and %d GPUs draining",
						window, r.finished, r.kernels, r.drains)
				}
				if want := t0 + tc.tc + cfg.BarrierLatency; r.endTime != want {
					t.Fatalf("window %d: barrier crossed at %v, want %v", window, r.endTime, want)
				}
				if len(rec.got) != tc.stores || rec.flushedAt != tc.stores {
					t.Fatalf("window %d: %d stores emitted, %d before the flush, want %d",
						window, len(rec.got), rec.flushedAt, tc.stores)
				}
				for i, a := range rec.got {
					if a != uint64(i)<<12 {
						t.Fatalf("window %d: store %d has address %#x, want %#x", window, i, a, uint64(i)<<12)
					}
				}
			}
		})
	}
}
