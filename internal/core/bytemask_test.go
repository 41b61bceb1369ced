package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestByteMaskSetGetCount(t *testing.T) {
	var m ByteMask
	m.Set(10, 20)
	if m.Count() != 10 {
		t.Fatalf("Count = %d, want 10", m.Count())
	}
	if !m.Get(10) || !m.Get(19) {
		t.Fatal("set range endpoints not set")
	}
	if m.Get(9) || m.Get(20) {
		t.Fatal("bytes outside range set")
	}
}

func TestByteMaskClamping(t *testing.T) {
	var m ByteMask
	m.Set(-5, 500)
	if m.Count() != CacheLineBytes {
		t.Fatalf("clamped full-line set: Count = %d, want %d", m.Count(), CacheLineBytes)
	}
}

func TestByteMaskCrossesWordBoundary(t *testing.T) {
	var m ByteMask
	m.Set(60, 70) // spans the uint64 boundary at bit 64
	if m.Count() != 10 {
		t.Fatalf("Count = %d, want 10", m.Count())
	}
	runs := m.Runs()
	if len(runs) != 1 || runs[0].Start != 60 || runs[0].Len != 10 {
		t.Fatalf("runs = %+v, want one run [60,70)", runs)
	}
}

func TestByteMaskOrAndOverlap(t *testing.T) {
	a := MaskForRange(0, 8)
	b := MaskForRange(4, 12)
	if got := a.OverlapCount(b); got != 4 {
		t.Fatalf("overlap = %d, want 4", got)
	}
	a.Or(b)
	if a.Count() != 12 {
		t.Fatalf("Count after Or = %d, want 12", a.Count())
	}
	if a.NumRuns() != 1 {
		t.Fatalf("NumRuns = %d, want 1 (merged)", a.NumRuns())
	}
}

func TestRunsDisjoint(t *testing.T) {
	var m ByteMask
	m.Set(0, 4)
	m.Set(8, 12)
	m.Set(127, 128)
	runs := m.Runs()
	want := []Run{{0, 4}, {8, 4}, {127, 1}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v, want %+v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs[%d] = %+v, want %+v", i, runs[i], want[i])
		}
	}
	if m.NumRuns() != 3 {
		t.Fatalf("NumRuns = %d, want 3", m.NumRuns())
	}
}

func TestEmptyMask(t *testing.T) {
	var m ByteMask
	if m.Count() != 0 || m.NumRuns() != 0 || len(m.Runs()) != 0 {
		t.Fatal("empty mask should have no bytes or runs")
	}
}

// Property: Runs() exactly reconstructs the mask, runs are maximal
// (separated by gaps) and ordered.
func TestRunsReconstructMask(t *testing.T) {
	f := func(seed int64, nRanges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var m ByteMask
		for i := 0; i < int(nRanges%16); i++ {
			from := rng.Intn(CacheLineBytes)
			to := from + 1 + rng.Intn(CacheLineBytes-from)
			m.Set(from, to)
		}
		var rebuilt ByteMask
		prevEnd := -2
		for _, r := range m.Runs() {
			if r.Len <= 0 || r.Start <= prevEnd {
				return false // not maximal or out of order
			}
			rebuilt.Set(r.Start, r.Start+r.Len)
			prevEnd = r.Start + r.Len // gap required before next run
		}
		return rebuilt == m && m.NumRuns() == len(m.Runs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Or is a union — counts obey inclusion–exclusion.
func TestOrInclusionExclusion(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		a := MaskForRange(int(a1)%128, int(a1)%128+int(a2)%32)
		b := MaskForRange(int(b1)%128, int(b1)%128+int(b2)%32)
		overlap := a.OverlapCount(b)
		ca, cb := a.Count(), b.Count()
		u := a
		u.Or(b)
		return u.Count() == ca+cb-overlap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSegments(t *testing.T) {
	// Fully within one line.
	segArr, n := storeSegments(Store{Addr: 256, Size: 64})
	segs := segArr[:n]
	if len(segs) != 1 || segs[0].line != 256 || segs[0].from != 0 || segs[0].to != 64 {
		t.Fatalf("segs = %+v", segs)
	}
	// Straddles a line boundary.
	segArr, n = storeSegments(Store{Addr: 120, Size: 16})
	segs = segArr[:n]
	if len(segs) != 2 {
		t.Fatalf("straddling store: %d segments, want 2", len(segs))
	}
	if segs[0].line != 0 || segs[0].from != 120 || segs[0].to != 128 || segs[0].dataOff != 0 {
		t.Fatalf("seg0 = %+v", segs[0])
	}
	if segs[1].line != 128 || segs[1].from != 0 || segs[1].to != 8 || segs[1].dataOff != 8 {
		t.Fatalf("seg1 = %+v", segs[1])
	}
	// A full aligned line.
	segArr, n = storeSegments(Store{Addr: 128, Size: 128})
	segs = segArr[:n]
	if len(segs) != 1 || segs[0].to-segs[0].from != 128 {
		t.Fatalf("full line segs = %+v", segs)
	}
}

func TestStoreSegmentsCoverExactly(t *testing.T) {
	f := func(addr uint32, size uint8) bool {
		s := Store{Addr: uint64(addr), Size: int(size%128) + 1}
		segArr, n := storeSegments(s)
		segs := segArr[:n]
		total := 0
		next := s.Addr
		for _, seg := range segs {
			if seg.line+uint64(seg.from) != next {
				return false // gap or overlap
			}
			total += seg.to - seg.from
			next = seg.line + uint64(seg.to)
		}
		return total == s.Size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreValidate(t *testing.T) {
	if err := (Store{Size: 0}).Validate(); err == nil {
		t.Error("zero-size store should be invalid")
	}
	if err := (Store{Size: 4, Data: []byte{1}}).Validate(); err == nil {
		t.Error("mismatched data length should be invalid")
	}
	if err := (Store{Size: 4}).Validate(); err != nil {
		t.Errorf("nil-data store should be valid: %v", err)
	}
	if err := (Store{Size: 2, Data: []byte{1, 2}}).Validate(); err != nil {
		t.Errorf("well-formed store rejected: %v", err)
	}
}

func TestStoreByteAndEnd(t *testing.T) {
	s := Store{Addr: 100, Size: 3, Data: []byte{9, 8, 7}}
	if s.Byte(1) != 8 {
		t.Fatalf("Byte(1) = %d", s.Byte(1))
	}
	if s.End() != 103 {
		t.Fatalf("End = %d", s.End())
	}
	// Nil data synthesizes the address-derived pattern.
	n := Store{Addr: 100, Size: 3}
	if n.Byte(2) != FillByte(102) {
		t.Fatal("nil-data store should synthesize FillByte")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(127) != 0 || LineAddr(128) != 128 || LineAddr(300) != 256 {
		t.Fatal("LineAddr misaligned")
	}
}

// oracleSet, oracleRuns and oracleNumRuns are the byte-at-a-time
// definitions the word-parallel ByteMask operations must match.
func oracleSet(m *ByteMask, from, to int) {
	for i := max(from, 0); i < min(to, CacheLineBytes); i++ {
		m[i>>6] |= 1 << uint(i&63)
	}
}

func oracleRuns(m ByteMask) []Run {
	var runs []Run
	for i := 0; i < CacheLineBytes; {
		if !m.Get(i) {
			i++
			continue
		}
		start := i
		for i < CacheLineBytes && m.Get(i) {
			i++
		}
		runs = append(runs, Run{Start: start, Len: i - start})
	}
	return runs
}

func oracleNumRuns(m ByteMask) int {
	n := 0
	prev := false
	for i := 0; i < CacheLineBytes; i++ {
		cur := m.Get(i)
		if cur && !prev {
			n++
		}
		prev = cur
	}
	return n
}

func checkMaskAgainstOracle(t *testing.T, m ByteMask) {
	t.Helper()
	want := oracleRuns(m)
	got := m.AppendRuns(nil)
	if len(got) != len(want) {
		t.Fatalf("mask %#x: runs %+v, want %+v", m, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mask %#x: runs %+v, want %+v", m, got, want)
		}
	}
	if n := m.NumRuns(); n != oracleNumRuns(m) {
		t.Fatalf("mask %#x: NumRuns = %d, want %d", m, n, oracleNumRuns(m))
	}
}

// TestByteMaskMatchesOracle checks the word-parallel Set, MaskForRange,
// NumRuns and AppendRuns against the byte loops: exhaustively over every
// single range (bounds overshooting the line on both sides), exhaustively
// over two-range masks whose boundaries sit at the line ends and around
// the word boundary, and over random masks.
func TestByteMaskMatchesOracle(t *testing.T) {
	for from := -2; from <= CacheLineBytes+2; from++ {
		for to := -2; to <= CacheLineBytes+2; to++ {
			var want ByteMask
			oracleSet(&want, from, to)
			if got := MaskForRange(from, to); got != want {
				t.Fatalf("MaskForRange(%d, %d) = %#x, want %#x", from, to, got, want)
			}
			got := ByteMask{0x5555, 1 << 63}
			want = got
			got.Set(from, to)
			oracleSet(&want, from, to)
			if got != want {
				t.Fatalf("Set(%d, %d) onto a filled mask = %#x, want %#x", from, to, got, want)
			}
			checkMaskAgainstOracle(t, MaskForRange(from, to))
		}
	}
	edges := []int{0, 1, 2, 31, 32, 62, 63, 64, 65, 66, 96, 125, 126, 127, 128}
	for _, a := range edges {
		for _, b := range edges {
			for _, c := range edges {
				for _, d := range edges {
					m := MaskForRange(a, b)
					m.Set(c, d)
					checkMaskAgainstOracle(t, m)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		m := ByteMask{rng.Uint64(), rng.Uint64()}
		if i%2 == 1 { // sparse: long runs and gaps
			m[0] &= rng.Uint64() & rng.Uint64()
			m[1] |= rng.Uint64() | rng.Uint64()
		}
		checkMaskAgainstOracle(t, m)
	}
}
