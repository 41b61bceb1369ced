package des

import (
	"slices"
	"testing"
)

type pooled struct {
	id int
}

// countingPool numbers each object in the order it is first handed out,
// the way a model sets an object's fields after Get.
type countingPool struct {
	Pool[pooled]
	made int
}

func (p *countingPool) Get() *pooled {
	x := p.Pool.Get()
	if x.id == 0 {
		p.made++
		x.id = p.made
	}
	return x
}

func TestPoolPutThenGetReturnsSameObject(t *testing.T) {
	p := &countingPool{}
	x := p.Get()
	p.Put(x)
	if y := p.Get(); y != x {
		t.Fatalf("Get after Put returned object %d, want %d", y.id, x.id)
	}
}

func TestPoolReusesLIFO(t *testing.T) {
	p := &countingPool{}
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

// TestPoolReusesWorkingSet recycles a working set many times over: the
// pool must make each distinct object once, and never a new one while a
// recycled one is free.
func TestPoolReusesWorkingSet(t *testing.T) {
	p := &countingPool{}
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
	if p.made != 40 || p.Pool.made != 40 {
		t.Fatalf("made = %d (pool: %d), want 40", p.made, p.Pool.made)
	}
}

// TestPoolSlabGrowth checks the slab schedule: 16 objects first, then as
// many as made so far, capped at 256 — one slab per doubling of the peak.
func TestPoolSlabGrowth(t *testing.T) {
	p := &Pool[pooled]{}
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
	p := &Pool[pooled]{}
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
