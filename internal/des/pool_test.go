package des

import (
	"slices"
	"testing"
)

type pooled struct {
	id    int
	inits int
}

// newCountingPool returns a pool whose init numbers each object in the
// order it is first handed out.
func newCountingPool() *Pool[pooled] {
	made := 0
	return NewPool(func(x *pooled) {
		made++
		x.id = made
		x.inits++
	})
}

func TestPoolPutThenGetReturnsSameObject(t *testing.T) {
	p := newCountingPool()
	x := p.Get()
	p.Put(x)
	if y := p.Get(); y != x {
		t.Fatalf("Get after Put returned object %d, want %d", y.id, x.id)
	}
}

func TestPoolReusesLIFO(t *testing.T) {
	p := newCountingPool()
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for _, want := range []*pooled{c, b, a} {
		if got := p.Get(); got != want {
			t.Fatalf("Get returned object %d, want %d (last put first)", got.id, want.id)
		}
	}
	if d := p.Get(); d.id != 4 {
		t.Fatalf("an empty free list must hand out a new object, got %d", d.id)
	}
}

// TestPoolInitRunsOncePerObject recycles a working set many times over:
// init must run exactly once per distinct object, at its first Get.
func TestPoolInitRunsOncePerObject(t *testing.T) {
	p := newCountingPool()
	seen := make(map[*pooled]bool)
	held := make([]*pooled, 0, 40)
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			x := p.Get()
			seen[x] = true
			held = append(held, x)
		}
		for _, x := range held {
			p.Put(x)
		}
		held = held[:0]
	}
	if len(seen) != 40 {
		t.Fatalf("5 rounds of a 40-object working set touched %d objects, want 40", len(seen))
	}
	for x := range seen {
		if x.inits != 1 {
			t.Fatalf("object %d initialised %d times, want once", x.id, x.inits)
		}
	}
	if p.made != 40 {
		t.Fatalf("made = %d, want 40", p.made)
	}
}

// TestPoolSlabGrowth checks the slab schedule: 16 objects first, then as
// many as made so far, capped at 256 — one slab per doubling of the peak.
func TestPoolSlabGrowth(t *testing.T) {
	p := NewPool[pooled](nil)
	var slabs []int
	for i := 0; i < 1024; i++ {
		fresh := len(p.slab) == 0
		p.Get()
		if fresh {
			slabs = append(slabs, len(p.slab)+1)
		}
	}
	want := []int{16, 16, 32, 64, 128, 256, 256, 256}
	if !slices.Equal(slabs, want) {
		t.Fatalf("slab sizes %v, want %v", slabs, want)
	}
}

// TestPoolWarmAllocFree: once the working set has been made, Get and Put
// allocate nothing.
func TestPoolWarmAllocFree(t *testing.T) {
	p := NewPool[pooled](nil)
	held := make([]*pooled, 100)
	round := func() {
		for i := range held {
			held[i] = p.Get()
		}
		for _, x := range held {
			p.Put(x)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("warm pool allocates %v per round, want 0", n)
	}
}
