package des

// Pool recycles the per-message objects of a model's transfer pipelines
// (one per message, store or packet in flight). Get takes the most
// recently Put object (LIFO, so a warm object is reused first); a miss
// takes the next object of a slab. The first slab holds poolFirstSlab
// objects and each later one as many as the pool has made so far, capped
// at poolMaxSlab: a pool allocates about one slab per doubling of its
// peak, wastes at most half of it, and one whose peak stays small costs a
// single small slab.
//
// A pooled object carries no per-object callback: it is its own Handler,
// and the caller sets whatever back-pointer it needs after Get. Put does
// not clear anything: the caller drops the references a pooled object
// must not pin. The zero Pool is empty and ready to use.
type Pool[T any] struct {
	free []*T
	slab []T
	made int
}

// Slab sizes of a Pool, in objects.
const (
	poolFirstSlab = 16
	poolMaxSlab   = 256
)

// Get returns a recycled object, or a new one from the current slab.
func (p *Pool[T]) Get() *T {
	if k := len(p.free); k > 0 {
		x := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return x
	}
	if len(p.slab) == 0 {
		p.slab = make([]T, min(max(p.made, poolFirstSlab), poolMaxSlab))
	}
	x := &p.slab[0]
	p.slab = p.slab[1:]
	p.made++
	return x
}

// Put returns x for reuse by a later Get.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
