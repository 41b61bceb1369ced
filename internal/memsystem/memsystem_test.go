package memsystem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"finepack/internal/core"
	"finepack/internal/des"
)

func TestMemoryWriteRead(t *testing.T) {
	m := NewMemory()
	m.Write(core.Store{Addr: 1000, Size: 4, Data: []byte{1, 2, 3, 4}})
	if b, ok := m.Read(1002); !ok || b != 3 {
		t.Fatalf("Read(1002) = %d,%v", b, ok)
	}
	if _, ok := m.Read(999); ok {
		t.Fatal("unwritten byte should report !ok")
	}
	if m.BytesWritten() != 4 {
		t.Fatalf("BytesWritten = %d, want 4", m.BytesWritten())
	}
}

func TestMemoryOverwrite(t *testing.T) {
	m := NewMemory()
	m.Write(core.Store{Addr: 0, Size: 2, Data: []byte{1, 1}})
	m.Write(core.Store{Addr: 0, Size: 2, Data: []byte{2, 2}})
	if b, _ := m.Read(0); b != 2 {
		t.Fatalf("overwrite lost: %d", b)
	}
	if m.BytesWritten() != 2 {
		t.Fatalf("BytesWritten = %d, want 2 (unique)", m.BytesWritten())
	}
}

func TestMemoryLineStraddle(t *testing.T) {
	m := NewMemory()
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i)
	}
	m.Write(core.Store{Addr: 120, Size: 16, Data: data})
	for i := 0; i < 16; i++ {
		if b, ok := m.Read(120 + uint64(i)); !ok || b != byte(i) {
			t.Fatalf("byte %d = %d,%v", i, b, ok)
		}
	}
}

func TestMemoryEqual(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Write(core.Store{Addr: 5, Size: 3, Data: []byte{1, 2, 3}})
	b.Write(core.Store{Addr: 5, Size: 3, Data: []byte{1, 2, 3}})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identical memories should be equal")
	}
	b.Write(core.Store{Addr: 5, Size: 1, Data: []byte{9}})
	if a.Equal(b) {
		t.Fatal("differing value should be unequal")
	}
	c := NewMemory()
	c.Write(core.Store{Addr: 5, Size: 4, Data: []byte{1, 2, 3, 4}})
	if a.Equal(c) {
		t.Fatal("differing footprint should be unequal")
	}
}

func TestMemoryEqualRandomized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewMemory(), NewMemory()
		var stores []core.Store
		for i := 0; i < 100; i++ {
			size := 1 + rng.Intn(32)
			data := make([]byte, size)
			rng.Read(data)
			stores = append(stores, core.Store{Addr: uint64(rng.Intn(1024)), Size: size, Data: data})
		}
		for _, s := range stores {
			a.Write(s)
		}
		// Same stores in the same order must match regardless of
		// interleaving with reads.
		for _, s := range stores {
			b.Write(s)
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestByteTrackerUniqueCounting(t *testing.T) {
	tr := NewByteTracker()
	if got := tr.Add(100, 8); got != 8 {
		t.Fatalf("first add: new = %d, want 8", got)
	}
	if got := tr.Add(104, 8); got != 4 {
		t.Fatalf("overlapping add: new = %d, want 4", got)
	}
	if tr.Unique() != 12 {
		t.Fatalf("Unique = %d, want 12", tr.Unique())
	}
	if tr.Touched != 16 {
		t.Fatalf("Touched = %d, want 16", tr.Touched)
	}
	tr.Reset()
	if tr.Unique() != 0 || tr.Touched != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestByteTrackerStraddlesLines(t *testing.T) {
	tr := NewByteTracker()
	if got := tr.Add(120, 16); got != 16 {
		t.Fatalf("straddling add: new = %d, want 16", got)
	}
	if tr.Unique() != 16 {
		t.Fatalf("Unique = %d, want 16", tr.Unique())
	}
}

// Property: tracker unique counts match a reference byte-set exactly.
func TestByteTrackerMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewByteTracker()
		ref := map[uint64]bool{}
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(4096))
			size := 1 + rng.Intn(64)
			wantNew := 0
			for b := uint64(0); b < uint64(size); b++ {
				if !ref[addr+b] {
					ref[addr+b] = true
					wantNew++
				}
			}
			if got := tr.Add(addr, size); got != wantNew {
				return false
			}
		}
		return tr.Unique() == core.Bytes(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestByteTrackerWarmAddAllocFree: once a tracker's map has grown to the
// working set, Reset keeps it and re-adding the same lines allocates
// nothing.
func TestByteTrackerWarmAddAllocFree(t *testing.T) {
	tr := NewByteTracker()
	addAll := func() {
		for i := 0; i < 512; i++ {
			tr.Add(uint64(i)*100, 40)
		}
	}
	addAll()
	if n := testing.AllocsPerRun(20, func() {
		tr.Reset()
		addAll()
	}); n != 0 {
		t.Fatalf("warmed ByteTracker allocates %.1f objects per Reset+Add pass, want 0", n)
	}
}

func TestIngressBufferDrains(t *testing.T) {
	sched := des.NewScheduler()
	b := NewIngressBuffer(sched, 4, 900e9)
	done := 0
	for i := 0; i < 10; i++ {
		b.Accept(core.Store{Addr: uint64(i * 128), Size: 64}, func() { done++ })
	}
	sched.Run()
	if done != 10 {
		t.Fatalf("drained %d stores, want 10", done)
	}
	if b.StoresDrained != 10 {
		t.Fatalf("StoresDrained = %d", b.StoresDrained)
	}
	if b.FreeSlots() != 4 {
		t.Fatalf("FreeSlots = %d, want all returned", b.FreeSlots())
	}
}

func TestIngressBufferBackPressure(t *testing.T) {
	sched := des.NewScheduler()
	// One slot, glacial drain: second store must wait for the first.
	b := NewIngressBuffer(sched, 1, 1e6) // 1 MB/s
	var times []des.Time
	for i := 0; i < 2; i++ {
		b.Accept(core.Store{Addr: uint64(i * 256), Size: 100}, func() {
			times = append(times, sched.Now())
		})
	}
	sched.Run()
	if len(times) != 2 {
		t.Fatalf("drained %d", len(times))
	}
	if times[1] < 2*times[0] {
		t.Fatalf("no back-pressure: %v then %v", times[0], times[1])
	}
}

func TestIngressBufferStraddlingStoreUsesTwoSlots(t *testing.T) {
	sched := des.NewScheduler()
	b := NewIngressBuffer(sched, 2, 1e6)
	drained := false
	b.Accept(core.Store{Addr: 120, Size: 16}, func() { drained = true })
	// Both slots held while draining.
	sched.RunUntil(1)
	if b.FreeSlots() != 0 {
		t.Fatalf("FreeSlots = %d during drain, want 0", b.FreeSlots())
	}
	sched.Run()
	if !drained || b.FreeSlots() != 2 {
		t.Fatalf("drained=%v free=%d", drained, b.FreeSlots())
	}
}

func TestIngressBufferDefaultEntries(t *testing.T) {
	sched := des.NewScheduler()
	b := NewIngressBuffer(sched, 0, 900e9)
	if b.FreeSlots() != DefaultIngressEntries {
		t.Fatalf("default entries = %d, want %d", b.FreeSlots(), DefaultIngressEntries)
	}
}
