package topo

import (
	"bytes"
	"testing"
)

// FuzzTopoSpec drives topology JSON, the input the fabric trusts for its
// routes, with arbitrary bytes. Rejections are fine; what parses must
// survive Build without panicking, a built graph's Route(s,d) must be a
// chain of edges running from GPU s to GPU d for every s≠d, and the
// canonical encoding must be a fixed point of ParseSpec.
func FuzzTopoSpec(f *testing.F) {
	for _, name := range PresetNames() {
		s, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.CanonicalJSON())
	}
	f.Add([]byte(`{"name":"ring3","gpus":3,"links":[{"a":0,"b":1,"bandwidth":1},{"a":1,"b":2,"bandwidth":1},{"a":2,"b":0,"bandwidth":1}]}`))
	f.Add([]byte(`{"name":"wrap","nodes":4611686018427387905,"gpus_per_node":4,"intra_node":{"bandwidth":1},"inter_node":{"bandwidth":1}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			return // bounds the route arena a fuzzed chain of links can demand
		}
		s, err := ParseSpec(bytes.NewReader(raw))
		if err != nil {
			return
		}
		canon := s.CanonicalJSON()
		again, err := ParseSpec(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if b := again.CanonicalJSON(); !bytes.Equal(b, canon) {
			t.Fatalf("canonical form not a fixed point:\n%s\n%s", canon, b)
		}
		g, err := Build(s)
		if err != nil {
			return
		}
		n := g.NumGPUs()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				at := src
				for _, e := range g.Route(src, dst) {
					ed := g.Edge(int(e))
					if ed.From != at {
						t.Fatalf("route %d->%d: edge %d leaves vertex %d, not %d", src, dst, e, ed.From, at)
					}
					at = ed.To
				}
				if at != dst {
					t.Fatalf("route %d->%d ends at vertex %d", src, dst, at)
				}
			}
		}
	})
}
