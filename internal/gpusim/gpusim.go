// Package gpusim models the GPU-side substrate FinePack plugs into: the
// warp execution model, the L1 cache's store coalescing (the only
// aggregation remote stores receive today — §III: "remote stores do not
// undergo coalescing beyond L1"), and the SM compute-throughput timing
// used by the system simulator.
package gpusim

import (
	"fmt"
	"math"

	"finepack/internal/core"
	"finepack/internal/des"
)

// WarpSize is the number of threads that execute a store instruction in
// lockstep (Table III).
const WarpSize = 32

// WarpStore is one warp-wide store instruction to remote memory: up to 32
// lanes, each writing ElemSize bytes at its own address. Inactive lanes are
// simply absent from Addrs.
type WarpStore struct {
	// Dst is the destination GPU.
	Dst int
	// ElemSize is the per-thread store width in bytes (1–8: scalar
	// loads/stores; 16 for vectorized float4).
	ElemSize int
	// Addrs holds one address per active lane (≤ WarpSize entries).
	Addrs []uint64
	// Atomic marks a warp-wide remote atomic (e.g. atomicMin on a
	// distance). Atomics are not coalesced by the L1 — each lane issues
	// its own transaction (§IV-C) — use Expand rather than Coalesce.
	Atomic bool
}

// Expand converts an atomic warp operation into its per-lane transactions
// without coalescing.
func Expand(w WarpStore) ([]core.Store, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	out := make([]core.Store, 0, len(w.Addrs))
	for _, addr := range w.Addrs {
		out = append(out, core.Store{Dst: w.Dst, Addr: addr, Size: w.ElemSize})
	}
	return out, nil
}

// Validate reports whether the warp store is well formed.
func (w WarpStore) Validate() error {
	if w.ElemSize <= 0 || w.ElemSize > 16 || len(w.Addrs) == 0 || len(w.Addrs) > WarpSize {
		return &warpStoreError{elemSize: w.ElemSize, lanes: len(w.Addrs)}
	}
	return nil
}

// warpStoreError reports a malformed warp store. It formats its message
// only when read, so the coalescer's per-warp check does no formatting.
type warpStoreError struct {
	elemSize, lanes int
}

func (e *warpStoreError) Error() string {
	if e.elemSize <= 0 || e.elemSize > 16 {
		return fmt.Sprintf("gpusim: element size %d outside [1,16]", e.elemSize)
	}
	return fmt.Sprintf("gpusim: %d active lanes outside [1,%d]", e.lanes, WarpSize)
}

// Coalesce performs L1-style write coalescing on a warp store: lane writes
// falling in the same 128B cache line are merged into byte-enabled line
// transactions, and each maximal contiguous byte run egresses as one store
// (Fig 1: the L1 coalesces across a warp into accesses of up to 128B; with
// no spatial locality, 32 scattered scalar stores produce 32 small
// transactions).
//
// The returned stores are ordered by line address and run offset, carry no
// data (accounting mode), and are each at most 128B.
func Coalesce(w WarpStore) ([]core.Store, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	_, out := coalesceAppend(w, nil, nil)
	return out, nil
}

// lineAcc accumulates one cache line's enabled-byte mask during warp
// coalescing.
type lineAcc struct {
	line uint64
	mask core.ByteMask
}

// coalesceAppend is the coalescing core shared by Coalesce and Coalescer:
// it merges w's lane writes into line-run stores appended to out, using
// lines as scratch, and returns both slices so streaming callers can
// reuse their backing arrays across warps. w must already be validated.
//
//finepack:hotpath warp coalescing, once per warp store in a streamed replay
func coalesceAppend(w WarpStore, lines []lineAcc, out []core.Store) ([]lineAcc, []core.Store) {
	// Group enabled bytes by cache line. Warp footprints are tiny
	// (≤ 32 lanes × 16B = 512B = at most 33 lines), so a small
	// insertion-ordered slice beats a map.
	for _, addr := range w.Addrs {
		remaining := w.ElemSize
		a := addr
		for remaining > 0 {
			line := core.LineAddr(a)
			from := int(a - line)
			n := core.CacheLineBytes - from
			if n > remaining {
				n = remaining
			}
			idx := -1
			for i := range lines {
				if lines[i].line == line {
					idx = i
					break
				}
			}
			if idx < 0 {
				lines = append(lines, lineAcc{line: line})
				idx = len(lines) - 1
			}
			lines[idx].mask.Set(from, from+n)
			a += uint64(n)
			remaining -= n
		}
	}
	// Sort lines by address for deterministic egress order. Insertion
	// sort: the slice is tiny.
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j].line < lines[j-1].line; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	// Walk each mask's contiguous runs inline rather than materializing a
	// Run slice per line: this path runs once per warp store in streamed
	// replays, where a per-line slice would dominate the garbage profile.
	for i := range lines {
		b := 0
		for b < core.CacheLineBytes {
			if !lines[i].mask.Get(b) {
				b++
				continue
			}
			start := b
			for b < core.CacheLineBytes && lines[i].mask.Get(b) {
				b++
			}
			out = append(out, core.Store{
				Dst:  w.Dst,
				Addr: lines[i].line + uint64(start),
				Size: b - start,
			})
		}
	}
	return lines, out
}

// ComputeModel converts kernel work into simulated compute time. The rate
// abstracts the 80-SM GV100 of Table III; absolute values only set the
// compute/communication ratio, which each workload calibrates explicitly.
type ComputeModel struct {
	// OpsPerSecond is the GPU's sustained execution throughput for the
	// workload's dominant operation mix.
	OpsPerSecond float64
}

// GV100 returns the Table III machine: 80 SMs × 64 CUDA cores at ~1.4GHz,
// sustained ≈ 7e12 ops/s for the regular arithmetic these workloads run.
func GV100() ComputeModel {
	return ComputeModel{OpsPerSecond: 7e12}
}

// Duration returns the simulated time to execute ops operations.
func (m ComputeModel) Duration(ops float64) des.Time {
	if m.OpsPerSecond <= 0 || ops <= 0 {
		return 0
	}
	ps := ops / m.OpsPerSecond * float64(des.Second)
	return des.Time(math.Ceil(ps))
}
