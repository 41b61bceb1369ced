// Package datasets provides deterministic synthetic stand-ins for the
// paper's evaluation inputs (§V): banded matrices for Jacobi, a power-law
// Cage-like matrix for PageRank, a web-crawl-like graph for SSSP's
// indochina input, and a random geometric graph for ALS's rgg input. All
// generators are seeded and offline; their degree distributions and
// partition-crossing structure reproduce the communication patterns the
// real datasets induce (peer-to-peer, many-to-many, all-to-all).
package datasets

import (
	"fmt"
	"math/rand"
	"slices"
)

// Graph is a directed graph / sparse matrix in CSR form.
type Graph struct {
	// N is the vertex (row) count.
	N int
	// RowPtr has N+1 entries; out-edges of v are Col[RowPtr[v]:RowPtr[v+1]].
	RowPtr []int32
	// Col holds destination vertices, sorted within each row.
	Col []int32
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.Col) }

// OutDegree returns vertex v's out-degree.
func (g *Graph) OutDegree(v int) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Out returns v's out-neighbors (a view into the CSR arrays).
func (g *Graph) Out(v int) []int32 {
	return g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if g.N < 0 || len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("datasets: RowPtr length %d for N=%d", len(g.RowPtr), g.N)
	}
	if g.RowPtr[0] != 0 || int(g.RowPtr[g.N]) != len(g.Col) {
		return fmt.Errorf("datasets: RowPtr endpoints invalid")
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("datasets: RowPtr not monotone at %d", v)
		}
		row := g.Out(v)
		for i, c := range row {
			if c < 0 || int(c) >= g.N {
				return fmt.Errorf("datasets: vertex %d edge to %d out of range", v, c)
			}
			if i > 0 && row[i-1] >= c {
				return fmt.Errorf("datasets: row %d not strictly sorted", v)
			}
		}
	}
	return nil
}

// Transpose returns the reversed graph (in-edges become out-edges): the
// pull-based view algorithms like PageRank use to find a vertex's
// contributors.
func (g *Graph) Transpose() *Graph {
	srcs := make([]int32, 0, g.Edges())
	dsts := make([]int32, 0, g.Edges())
	for v := 0; v < g.N; v++ {
		for _, w := range g.Out(v) {
			srcs = append(srcs, w)
			dsts = append(dsts, int32(v))
		}
	}
	return fromEdgeList(g.N, srcs, dsts)
}

// fromEdgeList builds a CSR graph from (src,dst) pairs, deduplicating
// parallel edges and dropping self-loops.
//
// It takes ownership of srcs and dsts: srcs is overwritten as scratch and
// dsts becomes the graph's Col, so callers pass freshly built slices and
// never touch them again. The only allocations are RowPtr and the Graph,
// whatever the row count.
func fromEdgeList(n int, srcs, dsts []int32) *Graph {
	rowPtr := make([]int32, n+1)
	for i, s := range srcs {
		if s != dsts[i] {
			rowPtr[s+1]++
		}
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	// Give each edge its CSR slot, with rowPtr[s] as row s's cursor;
	// self-loops take the slots past the last row. The cursors end at
	// each row's end, so shifting rowPtr right by one restores the starts.
	loops := rowPtr[n]
	for i, s := range srcs {
		if s == dsts[i] {
			srcs[i] = loops
			loops++
			continue
		}
		srcs[i] = rowPtr[s]
		rowPtr[s]++
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	permute(dsts, srcs)
	// Sort and dedup each row, compacting dsts and rewriting rowPtr as the
	// rows shrink. The write index never passes the row being read.
	k := int32(0)
	start := int32(0)
	for v := 0; v < n; v++ {
		end := rowPtr[v+1]
		row := dsts[start:end]
		slices.Sort(row)
		prev := int32(-1)
		for _, c := range row {
			if c != prev {
				dsts[k] = c
				k++
				prev = c
			}
		}
		rowPtr[v+1] = k
		start = end
	}
	return &Graph{N: n, RowPtr: rowPtr, Col: dsts[:k:k]}
}

// permute moves every dsts[i] to position slots[i], overwriting slots.
// It follows the permutation's cycles: swapping the edge at i into slot
// slots[i] puts that edge in place for good, since no other edge wants the
// slot, so any order of such swaps finishes. Each cycle is a chain of
// dependent cache misses, so several lanes follow chains at once and keep
// their misses in flight together; a lane that finishes claims the next
// position not yet in place.
func permute(dsts, slots []int32) {
	const lanes = 16
	next := 0
	claim := func() int {
		for next < len(slots) && int(slots[next]) == next {
			next++
		}
		next++
		return next - 1
	}
	var at [lanes]int
	for l := range at {
		at[l] = claim()
	}
	for live := true; live; {
		live = false
		for l := range at {
			i := at[l]
			if i >= len(slots) {
				continue
			}
			live = true
			j := slots[i]
			if int(j) == i {
				at[l] = claim()
				continue
			}
			dsts[i], dsts[j] = dsts[j], dsts[i]
			slots[i], slots[j] = slots[j], slots[i]
		}
	}
}

// Banded generates the banded matrix Jacobi uses ("synthetically generated
// banded matrices which arise widely in finite element analysis"): each row
// i connects to rows within halfBand of i.
func Banded(n, halfBand int) *Graph {
	if n <= 0 || halfBand <= 0 {
		return &Graph{N: 0, RowPtr: []int32{0}}
	}
	var srcs, dsts []int32
	for i := 0; i < n; i++ {
		lo, hi := i-halfBand, i+halfBand
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			if j != i {
				srcs = append(srcs, int32(i))
				dsts = append(dsts, int32(j))
			}
		}
	}
	return fromEdgeList(n, srcs, dsts)
}

// RMAT generates a Kronecker/R-MAT power-law graph (the standard synthetic
// stand-in for scale-free inputs like the Cage matrix family). Probabilities
// (a,b,c,d) = (0.57,0.19,0.19,0.05) follow Graph500.
func RMAT(n, avgDeg int, seed int64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, RowPtr: []int32{0}}
	}
	// Round n up to a power of two internally; out-of-range picks retry.
	levels := 0
	for 1<<levels < n {
		levels++
	}
	rng := rand.New(rand.NewSource(seed))
	m := n * avgDeg
	srcs := make([]int32, 0, m)
	dsts := make([]int32, 0, m)
	const a, b, c = 0.57, 0.19, 0.19
	for len(srcs) < m {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: nothing to add
			case r < a+b:
				v |= 1 << l
			case r < a+b+c:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		srcs = append(srcs, int32(u))
		dsts = append(dsts, int32(v))
	}
	return fromEdgeList(n, srcs, dsts)
}

// WebLike generates a web-crawl-like graph (the indochina stand-in): hosts
// form contiguous clusters with dense intra-cluster linkage, a power-law
// tail of hub pages, and a fraction of long-range cross-cluster links. The
// result is the many-to-many partition-crossing structure §V attributes to
// SSSP on indochina.
func WebLike(n, avgDeg int, crossFrac float64, seed int64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, RowPtr: []int32{0}}
	}
	srcs, dsts := webLikeEdges(n, avgDeg, crossFrac, seed)
	return fromEdgeList(n, srcs, dsts)
}

// webLikeEdges draws WebLike's edge list, before deduplication.
func webLikeEdges(n, avgDeg int, crossFrac float64, seed int64) (srcs, dsts []int32) {
	rng := rand.New(rand.NewSource(seed))
	clusterSize := 256
	m := n * avgDeg
	srcs = make([]int32, 0, m)
	dsts = make([]int32, 0, m)
	for len(srcs) < m {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < crossFrac {
			// Long-range link, biased toward hub pages (low ids within
			// a random cluster) via a squared draw.
			cl := rng.Intn((n + clusterSize - 1) / clusterSize)
			off := int(float64(clusterSize) * rng.Float64() * rng.Float64())
			v = cl*clusterSize + off
		} else {
			// Intra-cluster link.
			cl := u / clusterSize
			v = cl*clusterSize + rng.Intn(clusterSize)
		}
		if v >= n || u == v {
			continue
		}
		srcs = append(srcs, int32(u))
		dsts = append(dsts, int32(v))
	}
	return srcs, dsts
}

// RGG2D generates a random geometric graph (the rgg stand-in for ALS):
// points on a unit square connect to neighbors within a radius chosen to
// hit avgDeg. Vertices are numbered in grid-cell order, so locality in the
// graph is locality in the index space.
func RGG2D(n, avgDeg int, seed int64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, RowPtr: []int32{0}}
	}
	rng := rand.New(rand.NewSource(seed))
	// Place points on a jittered sqrt(n) × sqrt(n) grid; connect each to
	// its avgDeg nearest grid neighbors with jittered membership.
	side := 1
	for side*side < n {
		side++
	}
	var srcs, dsts []int32
	reach := 1
	for (2*reach+1)*(2*reach+1)-1 < avgDeg {
		reach++
	}
	for v := 0; v < n; v++ {
		x, y := v%side, v/side
		added := 0
		for dy := -reach; dy <= reach && added < avgDeg; dy++ {
			for dx := -reach; dx <= reach && added < avgDeg; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := x+dx, y+dy
				if nx < 0 || ny < 0 || nx >= side || ny >= side {
					continue
				}
				u := ny*side + nx
				if u >= n {
					continue
				}
				// Jitter: drop ~20% of candidate edges.
				if rng.Float64() < 0.2 {
					continue
				}
				srcs = append(srcs, int32(v))
				dsts = append(dsts, int32(u))
				added++
			}
		}
	}
	return fromEdgeList(n, srcs, dsts)
}
