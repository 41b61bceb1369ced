// Package topo is the first-class topology model for hierarchical
// multi-GPU fabrics: GPUs grouped into nodes behind NVLink/NVSwitch-class
// leaf switches, nodes joined by a slower inter-node fabric, every edge
// carrying its own latency/bandwidth/credit parameters. A Spec is the
// JSON-loadable description (named presets or custom graphs); Build
// expands it into a Graph with static shortest-path route tables computed
// once, so per-message route lookup on the simulator's hot path is a flat
// slice read and allocation-free.
//
// Determinism: everything here is computed from the Spec alone — vertex
// and edge IDs follow declaration order, the BFS route construction
// breaks ties by adjacency order (itself declaration-ordered), and no
// map is ever iterated on an output path. Two Builds of one Spec produce
// identical route tables on any machine.
package topo

import (
	"encoding/json"
	"fmt"
	"io"

	"finepack/internal/core"
)

// LinkClass bundles the per-edge link parameters one fabric tier shares.
type LinkClass struct {
	// Bandwidth is the per-direction link bandwidth in bytes/second.
	Bandwidth float64 `json:"bandwidth"`
	// Latency is the per-hop traversal latency (switch + propagation).
	Latency core.PicoSeconds `json:"latency_ps"`
	// CreditBytes bounds bytes in flight on one edge (receiver buffer of
	// the store-and-forward hop). Zero selects DefaultEdgeCreditBytes.
	CreditBytes int `json:"credit_bytes,omitempty"`
}

// DefaultEdgeCreditBytes is the per-edge receiver buffer used when a link
// class leaves CreditBytes unset, matching the flat fabric's default.
const DefaultEdgeCreditBytes = 256 << 10

// creditUnit mirrors the interconnect's flow-control granularity; a
// positive CreditBytes below it would round to a zero-token pool.
const creditUnit = 64

// Link is one custom-graph connection; it instantiates an edge in each
// direction between vertices A and B.
type Link struct {
	// A and B are vertex IDs: GPUs occupy 0..GPUs-1, switches
	// GPUs..GPUs+Switches-1.
	A int `json:"a"`
	B int `json:"b"`
	// LinkClass carries the edge parameters (both directions).
	LinkClass
}

// Spec is the JSON-loadable topology description. It comes in two
// mutually exclusive forms:
//
//   - Hierarchical: Nodes × GPUsPerNode GPUs, one leaf switch per node
//     (IntraNode-class edges to its GPUs), and for Nodes > 1 a spine
//     switch joining the leaf switches with InterNode-class edges. This
//     is what the named presets expand to.
//   - Custom: an explicit graph of GPUs + Switches vertices and Links,
//     with GPUNode assigning each GPU to a node for intra/inter-node
//     traffic classification.
//
// Validate fills defaults in place, so a normalized Spec is fully
// explicit and two spellings of one topology marshal to identical bytes
// (finepackd folds that canonical JSON into job identity).
type Spec struct {
	// Name labels the topology (preset name, or free-form for custom).
	Name string `json:"name"`

	// Hierarchical form.
	Nodes       int       `json:"nodes,omitempty"`
	GPUsPerNode int       `json:"gpus_per_node,omitempty"`
	IntraNode   LinkClass `json:"intra_node,omitempty"`
	InterNode   LinkClass `json:"inter_node,omitempty"`

	// Custom-graph form.
	GPUs     int    `json:"gpus,omitempty"`
	Switches int    `json:"switches,omitempty"`
	GPUNode  []int  `json:"gpu_node,omitempty"`
	Links    []Link `json:"links,omitempty"`
}

// maxTopoGPUs bounds the system size any spec may declare, matching the
// synthesis layer's ceiling.
const maxTopoGPUs = 1024

// Hierarchical returns the hierarchical Spec for nodes × gpusPerNode GPUs
// with the given link classes.
func Hierarchical(name string, nodes, gpusPerNode int, intra, inter LinkClass) *Spec {
	return &Spec{
		Name:        name,
		Nodes:       nodes,
		GPUsPerNode: gpusPerNode,
		IntraNode:   intra,
		InterNode:   inter,
	}
}

// Preset names. Presets are hierarchical systems with NVLink-class
// in-node links and an InfiniBand-class inter-node fabric.
const (
	// PresetFlat8 is 8 GPUs behind one switch — no inter-node tier.
	PresetFlat8 = "flat8"
	// PresetDGX2x8 is 2 nodes × 8 GPUs.
	PresetDGX2x8 = "dgx2x8"
	// PresetPod4x8 is 4 nodes × 8 GPUs — the 32-GPU crossover system.
	PresetPod4x8 = "pod4x8"
)

// nvlinkClass is the in-node tier of the presets: NVLink-class port
// bandwidth with NVSwitch-hop latency.
func nvlinkClass() LinkClass {
	return LinkClass{
		Bandwidth: 150e9,
		Latency:   core.PicoSeconds(150_000), // 150ns per hop
	}
}

// fabricClass is the inter-node tier of the presets: HDR-InfiniBand-class
// bandwidth with a longer per-hop latency.
func fabricClass() LinkClass {
	return LinkClass{
		Bandwidth: 25e9,
		Latency:   core.PicoSeconds(1_000_000), // 1µs per hop
	}
}

// PresetNames lists the named presets in documentation order.
func PresetNames() []string {
	return []string{PresetFlat8, PresetDGX2x8, PresetPod4x8}
}

// Preset resolves a named preset into its normalized Spec.
func Preset(name string) (*Spec, error) {
	var s *Spec
	switch name {
	case PresetFlat8:
		s = Hierarchical(name, 1, 8, nvlinkClass(), LinkClass{})
	case PresetDGX2x8:
		s = Hierarchical(name, 2, 8, nvlinkClass(), fabricClass())
	case PresetPod4x8:
		s = Hierarchical(name, 4, 8, nvlinkClass(), fabricClass())
	default:
		return nil, fmt.Errorf("topo: unknown preset %q (want one of %v)", name, PresetNames())
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("topo: preset %s invalid: %v", name, err))
	}
	return s, nil
}

// validateClass checks one link class, filling its credit default.
func validateClass(label string, c *LinkClass) error {
	if !(c.Bandwidth > 0) {
		return fmt.Errorf("topo: %s bandwidth must be positive", label)
	}
	if c.CreditBytes == 0 {
		c.CreditBytes = DefaultEdgeCreditBytes
	}
	if c.CreditBytes < creditUnit {
		return fmt.Errorf("topo: %s credit_bytes %d below one %dB credit unit would yield a zero-token pool",
			label, c.CreditBytes, creditUnit)
	}
	return nil
}

// Validate checks the spec and fills defaults in place, returning the
// canonical, fully explicit form.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("topo: spec needs a name")
	}
	hier := s.Nodes != 0 || s.GPUsPerNode != 0
	custom := s.GPUs != 0 || s.Switches != 0 || len(s.Links) != 0 || len(s.GPUNode) != 0
	switch {
	case hier && custom:
		return fmt.Errorf("topo: spec %q mixes hierarchical (nodes/gpus_per_node) and custom (gpus/links) forms", s.Name)
	case hier:
		return s.validateHierarchical()
	case custom:
		return s.validateCustom()
	default:
		return fmt.Errorf("topo: spec %q is empty (set nodes/gpus_per_node or gpus/links)", s.Name)
	}
}

func (s *Spec) validateHierarchical() error {
	if s.Nodes < 1 {
		return fmt.Errorf("topo: nodes %d must be >= 1", s.Nodes)
	}
	if s.GPUsPerNode < 1 {
		return fmt.Errorf("topo: gpus_per_node %d must be >= 1", s.GPUsPerNode)
	}
	// Bound the factors before multiplying: a product that wraps around
	// would pass the range check and size the graph by the raw counts.
	if s.Nodes > maxTopoGPUs/s.GPUsPerNode || s.Nodes*s.GPUsPerNode < 2 {
		return fmt.Errorf("topo: %d nodes × %d GPUs outside [2,%d] GPUs", s.Nodes, s.GPUsPerNode, maxTopoGPUs)
	}
	if err := validateClass("intra_node", &s.IntraNode); err != nil {
		return err
	}
	if s.Nodes > 1 {
		if err := validateClass("inter_node", &s.InterNode); err != nil {
			return err
		}
	} else {
		// Single-node systems have no inter-node tier; zero the class so
		// equivalent specs hash identically.
		s.InterNode = LinkClass{}
	}
	return nil
}

func (s *Spec) validateCustom() error {
	if s.GPUs < 2 || s.GPUs > maxTopoGPUs {
		return fmt.Errorf("topo: gpus %d outside [2,%d]", s.GPUs, maxTopoGPUs)
	}
	if s.Switches < 0 || s.Switches > maxTopoGPUs {
		return fmt.Errorf("topo: switches %d outside [0,%d]", s.Switches, maxTopoGPUs)
	}
	if len(s.GPUNode) == 0 {
		s.GPUNode = make([]int, s.GPUs) // one node: everything intra
	}
	if len(s.GPUNode) != s.GPUs {
		return fmt.Errorf("topo: gpu_node has %d entries for %d GPUs", len(s.GPUNode), s.GPUs)
	}
	for g, nd := range s.GPUNode {
		if nd < 0 || nd >= s.GPUs {
			return fmt.Errorf("topo: gpu_node[%d] = %d out of range", g, nd)
		}
	}
	if len(s.Links) == 0 {
		return fmt.Errorf("topo: custom spec %q has no links", s.Name)
	}
	nv := s.GPUs + s.Switches
	for i := range s.Links {
		l := &s.Links[i]
		if l.A < 0 || l.A >= nv || l.B < 0 || l.B >= nv {
			return fmt.Errorf("topo: links[%d] endpoint outside [0,%d)", i, nv)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: links[%d] is a self-loop on vertex %d", i, l.A)
		}
		if err := validateClass(fmt.Sprintf("links[%d]", i), &l.LinkClass); err != nil {
			return err
		}
	}
	return nil
}

// NumGPUs returns the spec's endpoint count (valid after Validate).
func (s *Spec) NumGPUs() int {
	if s.Nodes != 0 {
		return s.Nodes * s.GPUsPerNode
	}
	return s.GPUs
}

// CanonicalJSON returns the canonical encoding of a validated spec:
// struct fields marshal in declaration order, so equal topologies produce
// identical bytes (the form finepackd hashes into job IDs).
func (s *Spec) CanonicalJSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec of plain scalars and slices cannot fail to marshal.
		panic(err)
	}
	return b
}

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields
// (a typoed knob silently reverting to its default would corrupt an
// experiment).
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("topo: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
