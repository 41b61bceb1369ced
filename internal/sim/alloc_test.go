package sim

import (
	"runtime"
	"testing"

	"finepack/internal/core"
	"finepack/internal/gpusim"
	"finepack/internal/trace"
)

// scatterTrace is a flat-4 window in which every GPU sends warps whose
// lanes each hit a line of their own, so every lane is a store of its
// own, round-robin over the other GPUs, and copies copyBytes to each of
// them under the memcpy paradigms.
func scatterTrace(warps, copyBytes int) *trace.Trace {
	const gpus = 4
	tr := &trace.Trace{Name: "scatter", NumGPUs: gpus, SingleGPUOpsPerIter: 1e6}
	it := trace.Iteration{PerGPU: make([]trace.GPUWork, gpus)}
	for g := range it.PerGPU {
		w := &it.PerGPU[g]
		w.ComputeOps = 1e5
		for i := 0; i < warps; i++ {
			ws := gpusim.WarpStore{Dst: (g + 1 + i%(gpus-1)) % gpus, ElemSize: 8}
			for l := 0; l < gpusim.WarpSize; l++ {
				ws.Addrs = append(ws.Addrs, uint64(i*gpusim.WarpSize+l)*core.CacheLineBytes)
			}
			w.Stores = append(w.Stores, ws)
		}
		for d := 0; d < gpus; d++ {
			if d != g {
				w.Copies = append(w.Copies, trace.Copy{Dst: d, Bytes: core.Bytes(copyBytes), UsefulBytes: core.Bytes(copyBytes)})
			}
		}
	}
	tr.Iterations = []trace.Iteration{it}
	return tr
}

// coldRunMallocs runs tr once under par on a fresh simulator and returns
// the heap allocations the run made.
func coldRunMallocs(t *testing.T, tr *trace.Trace, par Paradigm) (uint64, *Result) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(tr, par, DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, res
}

// TestColdRunAllocsPerMessage pins what a message costs the host across a
// whole cold run, its set-up included. Under P2P each of the 65,536
// stores is a packet of its own, nearly all in flight at once; its
// transfer, delivery, ingest and ingress-drain objects come from slabs
// and are their own event handlers, so a store costs a small fraction of
// an allocation (0.045 on amd64; a closure bound per pooled object cost
// 2.05). Under DMA each GPU copies 4 MiB to each other GPU in 64 KiB
// chunks, each carried by one pooled chunk object (0.22 per chunk, set-up
// included; two closures per chunk cost 3.21).
func TestColdRunAllocsPerMessage(t *testing.T) {
	tr := scatterTrace(512, 4<<20)

	mallocs, res := coldRunMallocs(t, tr, P2P)
	if want := uint64(4 * 512 * gpusim.WarpSize); res.StoresSent != want {
		t.Fatalf("P2P sent %d stores, want %d", res.StoresSent, want)
	}
	if per := float64(mallocs) / float64(res.StoresSent); per > 0.1 {
		t.Fatalf("a cold P2P run costs %.3f allocations per store sent, want ≤ 0.1", per)
	}

	mallocs, _ = coldRunMallocs(t, tr, DMA)
	fp := DefaultConfig().FinePack
	_, wire := fp.TLP.TLPsForTransfer(4<<20, fp.MaxPayload)
	chunks := 4 * 3 * (wire + copyChunkBytes - 1) / copyChunkBytes
	if per := float64(mallocs) / float64(chunks); per > 0.5 {
		t.Fatalf("a cold DMA run costs %.2f allocations per 64 KiB chunk, want ≤ 0.5", per)
	}
}
