package topo

import (
	"reflect"
	"testing"
)

// TestRouteTableDeterminism pins the routing-determinism contract: two
// Builds of the same spec yield identical edge lists and route tables.
// CI runs the test under -race, and the t.Parallel subtests exercise
// concurrent builds.
func TestRouteTableDeterminism(t *testing.T) {
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s1, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			s2, _ := Preset(name)
			g1, err := Build(s1)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := Build(s2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g1.edges, g2.edges) {
				t.Fatal("edge lists differ across builds")
			}
			if !reflect.DeepEqual(g1.routeOff, g2.routeOff) || !reflect.DeepEqual(g1.routeArc, g2.routeArc) {
				t.Fatal("route tables differ across builds")
			}
		})
	}
}

// TestRouteLookupAllocationFree pins the hot-path contract: once a graph
// is built, Route and SameNode allocate nothing.
func TestRouteLookupAllocationFree(t *testing.T) {
	s, _ := Preset(PresetPod4x8)
	g, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumGPUs()
	allocs := testing.AllocsPerRun(100, func() {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				if len(g.Route(src, dst)) == 0 {
					t.Fatal("empty route")
				}
				_ = g.SameNode(src, dst)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("route lookup allocates %v per sweep, want 0", allocs)
	}
}
