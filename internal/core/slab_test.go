package core

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlabPlainMatchesNewPlainPacket: a slab-carved plain packet is field
// for field the packet NewPlainPacket builds, and passes validation.
func TestSlabPlainMatchesNewPlainPacket(t *testing.T) {
	cfg := DefaultConfig()
	var s PacketSlab
	for _, size := range []int{1, 4, 8, 32, 128} {
		data := s.Bytes(size)
		for i := range data {
			data[i] = byte(i + 1)
		}
		got := s.Plain(cfg, 3, 0x1000+uint64(size), data)
		want := NewPlainPacket(cfg, 3, 0x1000+uint64(size), append([]byte(nil), data...))
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("size %d: slab packet %+v, NewPlainPacket %+v", size, *got, *want)
		}
		if err := ValidatePacket(cfg, got); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// TestSlabBytesCapped: every payload is capacity-capped, so appending to
// one reallocates instead of overwriting the payload carved after it.
func TestSlabBytesCapped(t *testing.T) {
	var s PacketSlab
	a := s.Bytes(8)
	b := s.Bytes(8)
	for i := range b {
		b[i] = 0xAA
	}
	if cap(a) != len(a) {
		t.Fatalf("payload cap %d, len %d", cap(a), len(a))
	}
	_ = append(a, 1, 2, 3, 4)
	for i, v := range b {
		if v != 0xAA {
			t.Fatalf("append to a payload wrote its neighbour's byte %d", i)
		}
	}
	for i, v := range a {
		if v != 0 {
			t.Fatalf("fresh payload byte %d = %#x, want 0", i, v)
		}
	}
}

// sizeClass returns the size of the heap block Go allocates for n bytes:
// growing a byte slice rounds its capacity up to the size class.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

// TestSlabChunksFillSizeClasses: each chunk the slab makes, header or
// payload, is exactly one Go size class with less than one element spare.
func TestSlabChunksFillSizeClasses(t *testing.T) {
	cfg := DefaultConfig()
	var s PacketSlab
	var hdrSizes, bufSizes []int
	for i := 0; i < 4*(headerChunkMax/plainPacketSize); i++ {
		refill := len(s.hdrs) == 0
		s.Plain(cfg, 1, 0, nil)
		if refill {
			hdrSizes = append(hdrSizes, (len(s.hdrs)+1)*plainPacketSize)
		}
	}
	for i := 0; i < 3*payloadChunkMax/8; i++ {
		refill := len(s.buf) < 8
		s.Bytes(8)
		if refill {
			bufSizes = append(bufSizes, len(s.buf)+8)
		}
	}
	check := func(kind string, used []int, elem int, want []int) {
		t.Helper()
		if len(used) < len(want) {
			t.Fatalf("%s chunks %v, want at least %v", kind, used, want)
		}
		for i, u := range used {
			w := want[min(i, len(want)-1)]
			if class := sizeClass(u); class != w || class-u >= elem {
				t.Errorf("%s chunk %d uses %d B of a %d B size class, want the %d B class with < %d B spare",
					kind, i, u, class, w, elem)
			}
		}
	}
	check("header", hdrSizes, plainPacketSize, []int{2 << 10, 4 << 10, 8 << 10})
	check("payload", bufSizes, 1, []int{512, 1 << 10})

	if b := s.Bytes(payloadChunkMax + 1); len(b) != payloadChunkMax+1 || cap(b) != len(b) {
		t.Fatalf("oversized payload len %d cap %d", len(b), cap(b))
	}
}

// TestSlabWarmAllocs: once its chunks reach full size, a slab makes at
// most one allocation per 64 plain packets.
func TestSlabWarmAllocs(t *testing.T) {
	cfg := DefaultConfig()
	var s PacketSlab
	data := []byte{1, 2, 3, 4}
	const batches = 32
	fill := func() {
		for i := 0; i < batches*64; i++ {
			s.Plain(cfg, 1, uint64(i)*8, data)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(1, fill); allocs > batches {
		t.Fatalf("%d plain packets made %.0f allocations, want ≤ %d", batches*64, allocs, batches)
	}
}

// TestSlabIsNotAPool: once every packet carved from a chunk is dropped,
// the GC frees the chunk; the slab keeps nothing but its current chunks.
func TestSlabIsNotAPool(t *testing.T) {
	cfg := DefaultConfig()
	var s PacketSlab
	var hdrFreed, bufFreed atomic.Bool
	func() {
		// The first packet and payload of a fresh slab start their chunks,
		// so their finalizers track the chunks themselves.
		first := s.Plain(cfg, 1, 0, nil)
		runtime.SetFinalizer(first, func(*Packet) { hdrFreed.Store(true) })
		payload := s.Bytes(payloadChunkMin)
		runtime.SetFinalizer(&payload[0], func(*byte) { bufFreed.Store(true) })
		for len(s.hdrs) > 0 {
			s.Plain(cfg, 1, 0, nil)
		}
	}()
	// Move the slab onto fresh chunks, dropping its last hold on the
	// filled ones.
	s.Plain(cfg, 1, 0, nil)
	s.Bytes(8)
	for i := 0; i < 100 && !(hdrFreed.Load() && bufFreed.Load()); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !hdrFreed.Load() || !bufFreed.Load() {
		t.Fatalf("dropped chunks not collected: header %v, payload %v", hdrFreed.Load(), bufFreed.Load())
	}
	runtime.KeepAlive(&s)
}
