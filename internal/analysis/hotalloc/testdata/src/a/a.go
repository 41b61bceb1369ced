// Package a is a hotalloc fixture: allocation sources inside functions
// reachable from a //finepack:hotpath root fire, identical code outside the
// hot set stays silent, and //finepack:allow suppresses at line and
// function scope.
package a

import (
	"fmt"
	"unsafe"
)

type op struct{ v int }

// fn adapts a func to firer the way des.Func adapts one to des.Handler.
type fn func()

func (f fn) Fire() { f() }

type firer interface{ Fire() }

type handler interface {
	handle(v int)
}

type counter struct {
	n      int
	byName map[string]int
}

func (c *counter) handle(v int) { c.n += v }

// pump is the annotated root: everything it reaches — helper statically,
// counter.handle through the handler interface — joins the hot set.
//
//finepack:hotpath inner event loop stand-in
func (c *counter) pump(ops []op, h handler, box func(any), tick func(), schedule func(firer)) {
	var grow []int
	sized := make([]int, 0, len(ops))
	for _, o := range ops {
		helper(o.v)
		h.handle(o.v)
		grow = append(grow, o.v) // want "append to un-presized slice grow inside a loop"
		sized = append(sized, o.v)
	}
	cb := c.handle // want "method value c.handle allocates a bound closure"
	cb(1)
	c.handle(2)                  // a call, not a method value: silent
	_ = fmt.Sprintf("n=%d", c.n) // want "fmt.Sprintf formats"
	box(c.n)                     // want "passing int by value into any boxes it"
	box(&ops)                    // pointer fits the interface word: silent
	box(nil)
	box(tick)                 // a func value is one pointer word: silent
	schedule(fn(tick))        // so is a named func type: silent
	box(c.byName)             // a map too: silent
	box(unsafe.Pointer(&ops)) // and unsafe.Pointer: silent
	box(*c)                   // want "passing counter by value into any boxes it"
	m := map[string]int{}     // want "map literal allocates"
	_ = m
	mm := make(map[int]int) // want "make\\(map\\) allocates"
	_ = mm
	ch := make(chan int) // want "make\\(chan\\) allocates"
	box(ch)              // a chan is one pointer word: silent
	if c.n < 0 {
		panic(fmt.Sprintf("negative count %d", c.n)) // crash path: silent
	}
}

// helper is hot by reachability, not annotation.
func helper(v int) {
	f := func() int { return v + 1 } // want "closure captures v"
	_ = f()
	g := func() int { return 42 } // capture-free: static func, silent
	_ = g()
	h := func() int { return v } //finepack:allow hotalloc -- fixture: demonstrates line-scoped suppression
	_ = h()
}

// cold is byte-identical to helper's violation but unreachable from any
// root: silent.
func cold(v int) {
	f := func() int { return v + 1 }
	_ = f()
}

// setup is a root whose whole body is exempt: the allow rides in the doc
// comment, so it covers every line of the declaration.
//
//finepack:hotpath
//finepack:allow hotalloc -- fixture: function-scoped suppression covers the whole declaration
func setup(n int) func() int {
	state := n * 2
	return func() int { return state }
}
