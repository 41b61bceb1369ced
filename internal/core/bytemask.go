package core

import "math/bits"

// ByteMask tracks which of a cache line's 128 bytes hold valid data: the
// per-entry byte-enable bits of the remote write queue (Fig 8: "Each entry
// holds an address tag, 128B of data, and a byte-enable bit for each
// byte").
type ByteMask [2]uint64

// Set marks bytes [from, to) valid. Bounds are clamped to the line.
func (m *ByteMask) Set(from, to int) {
	m[0] |= wordRange(from, to)
	m[1] |= wordRange(from-64, to-64)
}

// wordRange returns a 64-bit word with bits [from, to) set, both bounds
// clamped to [0, 64].
func wordRange(from, to int) uint64 {
	from = max(from, 0)
	to = min(to, 64)
	if from >= to {
		return 0
	}
	return ^uint64(0) >> uint(64-(to-from)) << uint(from)
}

// Get reports whether byte i is valid.
func (m *ByteMask) Get(i int) bool {
	return m[i>>6]&(1<<uint(i&63)) != 0
}

// Or merges other into m (the queue-hit path: "the byte mask of the
// incoming store is ORed with the existing bytemask of the queue entry").
func (m *ByteMask) Or(other ByteMask) {
	m[0] |= other[0]
	m[1] |= other[1]
}

// Count returns the number of valid bytes.
func (m *ByteMask) Count() int {
	return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1])
}

// OverlapCount returns how many valid bytes m and other share: the bytes a
// new store overwrites rather than adds (redundant-transfer savings).
func (m *ByteMask) OverlapCount(other ByteMask) int {
	return bits.OnesCount64(m[0]&other[0]) + bits.OnesCount64(m[1]&other[1])
}

// Run is a maximal contiguous range of valid bytes within a line.
type Run struct {
	Start, Len int
}

// Runs returns the maximal contiguous valid-byte runs in ascending order.
// The packetizer emits one sub-packet per run ("Each individual remote
// write queue entry may need to be split into multiple sub-packets if the
// enabled bytes are not contiguous").
func (m *ByteMask) Runs() []Run {
	return m.AppendRuns(nil)
}

// AppendRuns appends the mask's contiguous valid runs to dst and returns
// the extended slice, letting hot flush paths reuse one scratch buffer
// instead of allocating per entry.
func (m *ByteMask) AppendRuns(dst []Run) []Run {
	for i := m.next(0, true); i < CacheLineBytes; {
		end := m.next(i, false)
		dst = append(dst, Run{Start: i, Len: end - i})
		i = m.next(end, true)
	}
	return dst
}

// next returns the first byte index at or after i whose valid bit equals
// valid, or CacheLineBytes if there is none.
func (m *ByteMask) next(i int, valid bool) int {
	for w := i >> 6; w < len(m); w++ {
		word := m[w]
		if !valid {
			word = ^word
		}
		if w == i>>6 {
			word &= ^uint64(0) << uint(i&63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return CacheLineBytes
}

// NumRuns returns the number of contiguous valid runs without allocating:
// a run starts at every valid byte whose predecessor is not valid, so the
// starts are m &^ (m << 1) over the 128-bit mask, with bit 63 of word 0
// carried into word 1.
func (m *ByteMask) NumRuns() int {
	lo, hi := m[0], m[1]
	return bits.OnesCount64(lo&^(lo<<1)) + bits.OnesCount64(hi&^(hi<<1|lo>>63))
}

// MaskForRange builds a mask with bytes [from, to) set.
func MaskForRange(from, to int) ByteMask {
	var m ByteMask
	m.Set(from, to)
	return m
}
