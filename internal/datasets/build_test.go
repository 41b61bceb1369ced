package datasets

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceFromEdgeList is a straightforward CSR builder: count,
// prefix-sum, scatter into a fresh Col, then sort.Slice and dedup each row
// into fresh row pointers. It leaves its inputs alone and is the oracle
// the in-place fromEdgeList must match.
func referenceFromEdgeList(n int, srcs, dsts []int32) *Graph {
	counts := make([]int32, n+1)
	for i := range srcs {
		if srcs[i] != dsts[i] {
			counts[srcs[i]+1]++
		}
	}
	rowPtr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + counts[v+1]
	}
	col := make([]int32, rowPtr[n])
	fill := make([]int32, n)
	for i := range srcs {
		if srcs[i] == dsts[i] {
			continue
		}
		s := srcs[i]
		col[rowPtr[s]+fill[s]] = dsts[i]
		fill[s]++
	}
	out := col[:0]
	newPtr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		row := col[rowPtr[v] : rowPtr[v]+fill[v]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		prev := int32(-1)
		for _, c := range row {
			if c != prev {
				out = append(out, c)
				prev = c
			}
		}
		newPtr[v+1] = int32(len(out))
	}
	return &Graph{N: n, RowPtr: newPtr, Col: out}
}

// sameGraph fails unless got and want are the same CSR arrays and got is
// a valid graph whose Col has no spare capacity to append into.
func sameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
		t.Fatalf("graph differs from reference:\n got N=%d RowPtr=%v Col=%v\nwant N=%d RowPtr=%v Col=%v",
			got.N, got.RowPtr, got.Col, want.N, want.RowPtr, want.Col)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if cap(got.Col) != len(got.Col) {
		t.Fatalf("Col has cap %d beyond its %d edges", cap(got.Col), len(got.Col))
	}
}

// checkOracle builds (n, srcs, dsts) with both builders, each on its own
// copy, and compares them.
func checkOracle(t testing.TB, n int, srcs, dsts []int32) {
	t.Helper()
	want := referenceFromEdgeList(n, slices.Clone(srcs), slices.Clone(dsts))
	got := fromEdgeList(n, slices.Clone(srcs), slices.Clone(dsts))
	sameGraph(t, got, want)
}

func TestFromEdgeListMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		srcs, dsts []int32
	}{
		{"empty", 0, nil, nil},
		{"one vertex, no edges", 1, nil, nil},
		{"one vertex, self-loops", 1, []int32{0, 0, 0}, []int32{0, 0, 0}},
		{"only self-loops", 5, []int32{4, 0, 2, 2, 1}, []int32{4, 0, 2, 2, 1}},
		{"one hub row", 6, []int32{2, 2, 2, 2, 2}, []int32{5, 0, 3, 1, 4}},
		{"heavy duplication", 3, []int32{0, 1, 0, 1, 0, 1, 0, 0}, []int32{2, 0, 2, 0, 2, 2, 1, 2}},
		{"empty trailing rows", 8, []int32{1, 0, 1}, []int32{0, 3, 2}},
		{"self-loops among edges", 4, []int32{0, 1, 1, 3, 3, 2}, []int32{0, 2, 1, 0, 3, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkOracle(t, c.n, c.srcs, c.dsts) })
	}
	// A hub row with every edge duplicated, beside self-loops.
	var hs, hd []int32
	for r := 0; r < 4; r++ {
		for v := int32(0); v < 64; v++ {
			hs = append(hs, 7)
			hd = append(hd, 63-v)
		}
	}
	checkOracle(t, 64, hs, hd)
}

func TestFromEdgeListRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(40)
		if n == 0 {
			checkOracle(t, 0, nil, nil)
			continue
		}
		m := rng.Intn(4*n + 1)
		srcs := make([]int32, m)
		dsts := make([]int32, m)
		// Mix uniform edges with a skewed share that piles onto low ids,
		// so hub rows, duplicates and self-loops all occur.
		for e := range srcs {
			if rng.Intn(2) == 0 {
				srcs[e] = int32(rng.Intn(n))
				dsts[e] = int32(rng.Intn(n))
			} else {
				srcs[e] = int32(rng.Intn(1 + rng.Intn(n)))
				dsts[e] = int32(rng.Intn(1 + rng.Intn(n)))
			}
		}
		checkOracle(t, n, srcs, dsts)
	}
}

// TestGeneratorsMatchReference builds the SSSP and PageRank graphs at the
// size a finepackd job uses (scale 0.05 of 1<<17 vertices) and checks them
// against the reference builder on the same edge lists.
func TestGeneratorsMatchReference(t *testing.T) {
	const n = 6553
	for seed := int64(1); seed <= 20; seed++ {
		s, d := webLikeEdges(n, 12, 0.04, seed)
		sameGraph(t, WebLike(n, 12, 0.04, seed), referenceFromEdgeList(n, s, d))
		s, d = cageLikeEdges(n, 16, 4096, seed)
		sameGraph(t, CageLike(n, 16, 4096, seed), referenceFromEdgeList(n, s, d))
	}
}

func FuzzFromEdgeList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 0, 1})
	f.Add([]byte{9, 3, 1, 3, 5, 3, 1, 3, 8, 3, 3, 3, 0})
	// The first byte is the vertex count; each following byte pair is one
	// edge, reduced into range.
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			checkOracle(t, 0, nil, nil)
			return
		}
		n := int(raw[0])
		var srcs, dsts []int32
		if n > 0 {
			for i := 1; i+1 < len(raw); i += 2 {
				srcs = append(srcs, int32(int(raw[i])%n))
				dsts = append(dsts, int32(int(raw[i+1])%n))
			}
		}
		checkOracle(t, n, srcs, dsts)
	})
}

var graphSink *Graph

// TestFromEdgeListAllocsFixed pins the builder's allocation count: RowPtr
// and the Graph, the same at any row count. Each measured call gets fresh
// copies of a WebLike edge list, made outside the measured function,
// because the builder consumes its inputs.
func TestFromEdgeListAllocsFixed(t *testing.T) {
	const runs = 3
	var counts []float64
	for _, n := range []int{1 << 10, 1 << 16} {
		s, d := webLikeEdges(n, 12, 0.04, 1)
		srcs := make([][]int32, runs+1)
		dsts := make([][]int32, runs+1)
		for i := range srcs {
			srcs[i], dsts[i] = slices.Clone(s), slices.Clone(d)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			graphSink = fromEdgeList(n, srcs[i], dsts[i])
			i++
		})
		if allocs > 2 {
			t.Errorf("n=%d: fromEdgeList allocates %.0f objects, want at most 2 (RowPtr and the Graph)", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("fromEdgeList allocates %.0f objects at n=1024 but %.0f at n=65536, want the same", counts[0], counts[1])
	}
}

// BenchmarkFromEdgeList times the CSR build of a WebLike edge list at a
// finepackd job's size and at the default SSSP size. The edge lists are
// copied back outside the timer, because the builder consumes them.
func BenchmarkFromEdgeList(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"job", 6553}, {"full", 1 << 17}} {
		b.Run(bc.name, func(b *testing.B) {
			s, d := webLikeEdges(bc.n, 12, 0.04, 1)
			srcs, dsts := slices.Clone(s), slices.Clone(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(srcs, s)
				copy(dsts, d)
				b.StartTimer()
				graphSink = fromEdgeList(bc.n, srcs, dsts)
			}
			b.ReportMetric(float64(len(s))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}
