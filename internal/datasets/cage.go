package datasets

import "math/rand"

// CageLike generates a stand-in for the Cage matrix family (DNA
// electrophoresis models): structurally banded — vertex i connects only to
// vertices within halfBand of i — but irregular within the band, with an
// exponentially decaying offset distribution. Under a 1D partition this
// yields the peer-to-peer communication §V reports for PageRank on Cage,
// while the in-band scatter still defeats warp-level coalescing.
func CageLike(n, avgDeg, halfBand int, seed int64) *Graph {
	if n <= 0 || halfBand <= 0 {
		return &Graph{N: 0, RowPtr: []int32{0}}
	}
	srcs, dsts := cageLikeEdges(n, avgDeg, halfBand, seed)
	return fromEdgeList(n, srcs, dsts)
}

// cageLikeEdges draws CageLike's edge list, before deduplication.
func cageLikeEdges(n, avgDeg, halfBand int, seed int64) (srcs, dsts []int32) {
	rng := rand.New(rand.NewSource(seed))
	m := n * avgDeg
	srcs = make([]int32, 0, m)
	dsts = make([]int32, 0, m)
	for len(srcs) < m {
		u := rng.Intn(n)
		// Two-sided exponential offset, truncated to the band.
		mag := 1 + int(rng.ExpFloat64()*float64(halfBand)/3)
		if mag > halfBand {
			continue
		}
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		v := u + mag
		if v < 0 || v >= n {
			continue
		}
		srcs = append(srcs, int32(u))
		dsts = append(dsts, int32(v))
	}
	return srcs, dsts
}
