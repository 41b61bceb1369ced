// Package interconnect models the switched inter-GPU fabric: GPUs hang off
// PCIe switches, every port serializes traffic at link bandwidth, hops add
// latency, and a credit loop bounds the bytes in flight toward any
// destination (PCIe's receiver-buffer flow control). The evaluated systems
// are 4 GPUs under one switch (§V) and 16 GPUs under four switches joined
// by trunk links (§VI-B's scaling study); Config.Topology swaps in a
// multi-hop graph.
//
// Either fabric compiles, in New, to one link table and one route table,
// and every message runs through the same pipeline (see xfer.go).
package interconnect

import (
	"fmt"
	"math"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
	"finepack/internal/topo"
)

// Config describes the fabric.
type Config struct {
	// NumGPUs is the endpoint count.
	NumGPUs int
	// Bandwidth is the per-direction link bandwidth in bytes/second.
	// Zero or negative means an infinite-bandwidth fabric (transfers
	// serialize in zero time), used for the paper's opportunity bound.
	Bandwidth float64
	// GPUsPerSwitch sets the leaf switch radix (default 4).
	GPUsPerSwitch int
	// SwitchLatency is added per switch traversal.
	SwitchLatency des.Time
	// PropagationLatency is added per link traversal.
	PropagationLatency des.Time
	// CreditBytes bounds bytes in flight toward one destination port
	// (receiver buffer size). Zero selects DefaultCreditBytes (256KB).
	// Positive values below one credit unit (64B) are rejected: they
	// would round down to a zero-token pool and deadlock unconditionally.
	CreditBytes int
	// Faults configures link-level fault injection and the Ack/Nak
	// replay protocol. The zero value models ideal, error-free links and
	// keeps the fault path entirely out of the event stream.
	Faults faults.Config
	// Topology, when non-nil, replaces the single-switch fabric with a
	// hierarchical multi-hop graph: messages follow its static route
	// tables, store-and-forwarding through one server per directed edge
	// with that edge's own bandwidth, latency and credit loop. Nil keeps
	// the flat fabric. With a topology, Bandwidth, GPUsPerSwitch,
	// SwitchLatency and PropagationLatency affect nothing: the graph's
	// per-edge parameters govern every transfer cost.
	Topology *topo.Graph
}

// DefaultCreditBytes is the receiver buffer size used when CreditBytes is
// unset: it covers the bandwidth-delay product of the two-stage
// (egress + ingress) path for max-size bulk chunks, or the credit loop
// halves effective throughput.
const DefaultCreditBytes = 256 << 10

// DefaultConfig returns a 4-GPU PCIe-4.0-class fabric: 32GB/s links,
// ~150ns switch latency, one leaf switch.
func DefaultConfig(numGPUs int, bandwidth float64) Config {
	return Config{
		NumGPUs:            numGPUs,
		Bandwidth:          bandwidth,
		GPUsPerSwitch:      4,
		SwitchLatency:      150 * des.Nanosecond,
		PropagationLatency: 10 * des.Nanosecond,
		CreditBytes:        DefaultCreditBytes,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.NumGPUs < 2 {
		return fmt.Errorf("interconnect: need ≥2 GPUs, got %d", c.NumGPUs)
	}
	if c.GPUsPerSwitch <= 0 {
		return fmt.Errorf("interconnect: GPUs per switch must be positive")
	}
	if c.CreditBytes > 0 && c.CreditBytes < creditUnit {
		return fmt.Errorf("interconnect: CreditBytes %d below one %dB credit unit would yield a zero-token pool and deadlock",
			c.CreditBytes, creditUnit)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Topology != nil && c.Topology.NumGPUs() != c.NumGPUs {
		return fmt.Errorf("interconnect: topology %s has %d GPUs, config has %d",
			c.Topology.Name(), c.Topology.NumGPUs(), c.NumGPUs)
	}
	return nil
}

// creditUnit is the granularity of flow-control credits, mirroring PCIe's
// credit units (headers + payload chunks).
const creditUnit = 64

// creditsFor returns the credit units a message holds in a buffer of max
// units. A message larger than the whole buffer streams through it chunk
// by chunk; it can never hold more credits than exist.
func creditsFor(wireBytes, max int) int {
	if c := (wireBytes + creditUnit - 1) / creditUnit; c < max {
		return c
	}
	return max
}

// link is one serializing stage of the fabric: a flat port or trunk, or a
// directed edge of a multi-hop graph.
type link struct {
	srv *des.Server
	// cred bounds the bytes in flight on the link; nil means none.
	cred       *des.TokenPool
	maxCredits int
	bw         float64
	// latency is waited after serialization, unless handoff: then the
	// far end takes the message at once, with no scheduled wait at all
	// (the flat ingress port).
	latency des.Time
	handoff bool
	inter   bool
	bytes   core.Bytes
	packets uint64
}

// Network is the instantiated fabric.
type Network struct {
	cfg     Config
	sched   *des.Scheduler
	credits []*des.TokenPool // per-destination receiver buffer

	// links is the link table; on a multi-hop fabric link e is graph
	// edge e. The route for (src,dst) is
	// routeArc[routeOff[src*NumGPUs+dst]:routeOff[src*NumGPUs+dst+1]],
	// the same flat arena as topo.Graph's.
	links    []link
	routeOff []int32
	routeArc []int32
	// egress and ingress list, per GPU, the links its messages leave on
	// (first hops) and arrive on (last hops).
	egress, ingress [][]int32

	// Stats
	PacketsSent uint64
	BytesSent   core.Bytes
	// perLink counts bytes per endpoint pair, indexed src*NumGPUs+dst —
	// a flat slice, not a formatted-string map, because Send is the
	// fabric's hottest path and key formatting would allocate per packet.
	perLink []core.Bytes

	// Reliability state, populated only when cfg.Faults is enabled
	// (see replay.go). fi == nil selects the ideal, error-free path.
	fi            *faults.Injector
	replaySlots   []*des.TokenPool // per-egress replay-buffer slots
	inFlight      int              // packets accepted but not yet delivered
	deliveries    uint64           // watchdog progress counter
	lastProgress  uint64
	watchdogArmed bool
	tick          des.Handler // watchdogTick, bound once

	// Replays counts retransmissions (one per Nak'd attempt),
	// ReplayedBytes the wire bytes those retransmissions re-serialized,
	// RecoveredStalls the credit-loop stalls the watchdog resolved by
	// link-level reset.
	Replays         uint64
	ReplayedBytes   core.Bytes
	RecoveredStalls uint64
	linkErrors      map[string]uint64
	resets          []Reset

	// obs, when non-nil, receives delivery/replay/reset events, and
	// hopObs per-edge traversals on multi-hop fabrics (see observer.go).
	obs    Observer
	hopObs HopObserver

	// xfers recycles transfer pipelines (see xfer.go): Transfer is the
	// fabric's hottest entry point, and building a closure chain per
	// packet dominated allocation profiles.
	xfers des.Pool[xfer]
}

// New builds the network on the given scheduler.
func New(sched *des.Scheduler, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CreditBytes <= 0 {
		cfg.CreditBytes = DefaultCreditBytes
	}
	n := &Network{
		cfg:     cfg,
		sched:   sched,
		perLink: make([]core.Bytes, cfg.NumGPUs*cfg.NumGPUs),
	}
	if cfg.Faults.Enabled() {
		fi, err := faults.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		n.fi = fi
		n.cfg.Faults = fi.Config() // protocol knobs with defaults applied
		n.linkErrors = make(map[string]uint64)
		n.tick = des.Func(n.watchdogTick)
		for i := 0; i < cfg.NumGPUs; i++ {
			n.replaySlots = append(n.replaySlots,
				des.NewTokenPool(sched, n.cfg.Faults.ReplayBufferDepth))
		}
	}
	for i := 0; i < cfg.NumGPUs; i++ {
		n.credits = append(n.credits, des.NewTokenPool(sched, cfg.CreditBytes/creditUnit))
	}
	var route func(arc []int32, src, dst int) []int32
	if graph := cfg.Topology; graph != nil {
		for e := 0; e < graph.NumEdges(); e++ {
			ed := graph.Edge(e)
			n.addLink(ed.Bandwidth, des.Time(ed.Latency), ed.CreditBytes/creditUnit).inter = ed.Inter
		}
		route = func(arc []int32, src, dst int) []int32 { return append(arc, graph.Route(src, dst)...) }
	} else {
		route = n.flatLinks()
	}
	g := cfg.NumGPUs
	n.routeOff = make([]int32, g*g+1)
	n.egress, n.ingress = make([][]int32, g), make([][]int32, g)
	for src := 0; src < g; src++ {
		for dst := 0; dst < g; dst++ {
			begin := len(n.routeArc)
			if src != dst {
				n.routeArc = route(n.routeArc, src, dst)
				r := n.routeArc[begin:]
				n.egress[src] = addPort(n.egress[src], r[0])
				n.ingress[dst] = addPort(n.ingress[dst], r[len(r)-1])
			}
			n.routeOff[src*g+dst+1] = int32(len(n.routeArc))
		}
	}
	return n, nil
}

// flatLinks builds the single-switch-tier fabric's link table — an egress
// port per GPU, an ingress port per GPU, and one trunk per unordered pair
// of leaf switches — and returns its route builder. Both directions
// between two switches share their trunk's server. No flat link has a
// credit loop of its own; the switch and propagation latency is waited
// after the egress port and after the trunk, nothing after the ingress
// port.
func (n *Network) flatLinks() func(arc []int32, src, dst int) []int32 {
	g, radix := n.cfg.NumGPUs, n.cfg.GPUsPerSwitch
	hop := n.cfg.SwitchLatency + n.cfg.PropagationLatency
	for i := 0; i < g; i++ {
		n.addLink(n.cfg.Bandwidth, hop, 0)
	}
	for i := 0; i < g; i++ {
		n.addLink(n.cfg.Bandwidth, 0, 0).handoff = true
	}
	switches := (g + radix - 1) / radix
	trunk := make([]int32, switches*switches)
	for a := 0; a < switches; a++ {
		for b := a + 1; b < switches; b++ {
			id := int32(len(n.links))
			n.addLink(n.cfg.Bandwidth, hop, 0)
			trunk[a*switches+b], trunk[b*switches+a] = id, id
		}
	}
	return func(arc []int32, src, dst int) []int32 {
		arc = append(arc, int32(src))
		if a, b := src/radix, dst/radix; a != b {
			arc = append(arc, trunk[a*switches+b])
		}
		return append(arc, int32(g+dst))
	}
}

// addLink appends a link holding credits tokens (0: no credit loop).
func (n *Network) addLink(bw float64, latency des.Time, credits int) *link {
	l := link{srv: des.NewServer(n.sched), bw: bw, latency: latency}
	if credits > 0 {
		l.cred, l.maxCredits = des.NewTokenPool(n.sched, credits), credits
	}
	n.links = append(n.links, l)
	return &n.links[len(n.links)-1]
}

// addPort appends link l to ports unless already listed.
func addPort(ports []int32, l int32) []int32 {
	for _, p := range ports {
		if p == l {
			return ports
		}
	}
	return append(ports, l)
}

// Config returns the resolved configuration the network runs with
// (defaults substituted).
func (n *Network) Config() Config { return n.cfg }

// Send is Transfer with a plain completion function (may be nil).
func (n *Network) Send(src, dst int, wireBytes int, done func()) {
	var h des.Handler
	if done != nil {
		h = des.Func(done)
	}
	n.Transfer(src, dst, wireBytes, h)
}

// Transfer transmits wireBytes from src to dst; done (may be nil) fires
// when the last byte arrives at the destination port. The message holds
// destination credits end to end and serializes through every link of
// its route (see xfer.go). A message above math.MaxInt32 bytes panics:
// the pipeline carries sizes as int32.
//
//finepack:hotpath per-packet transfer pipeline entry
func (n *Network) Transfer(src, dst int, wireBytes int, done des.Handler) {
	if src == dst {
		panic(fmt.Sprintf("interconnect: self-send on GPU %d", src))
	}
	if wireBytes > math.MaxInt32 {
		panic(fmt.Sprintf("interconnect: %d-byte message exceeds the %d-byte limit", wireBytes, math.MaxInt32))
	}
	if wireBytes <= 0 {
		wireBytes = 1
	}
	n.PacketsSent++
	n.BytesSent += core.Bytes(wireBytes)
	n.perLink[src*n.cfg.NumGPUs+dst] += core.Bytes(wireBytes)

	x := n.xfers.Get()
	x.n = n
	x.src, x.dst, x.wireBytes = int32(src), int32(dst), int32(wireBytes)
	x.try, x.frac = 0, 1
	x.start = n.sched.Now()
	x.done = done
	n.inFlight++
	n.armWatchdog()
	next := stageAttempt
	if n.fi != nil {
		next = stageReserve
	}
	n.credits[dst].Acquire(n.destCredits(wireBytes), x.then(next))
}

// destCredits returns the destination credits a message holds end to end.
func (n *Network) destCredits(wireBytes int) int {
	return creditsFor(wireBytes, n.cfg.CreditBytes/creditUnit)
}

// LinkBytes returns bytes sent on the src→dst endpoint pair.
func (n *Network) LinkBytes(src, dst int) core.Bytes {
	if src < 0 || dst < 0 || src >= n.cfg.NumGPUs || dst >= n.cfg.NumGPUs {
		return 0
	}
	return n.perLink[src*n.cfg.NumGPUs+dst]
}

// NumEdges returns the topology's directed edge count (0 on a flat
// fabric, whose ports and trunks are not edges).
func (n *Network) NumEdges() int {
	if n.cfg.Topology == nil {
		return 0
	}
	return len(n.links)
}

// EdgeBytes returns the wire bytes forwarded over directed edge e.
func (n *Network) EdgeBytes(e int) core.Bytes { return n.links[e].bytes }

// EdgePackets returns the packets forwarded over directed edge e.
func (n *Network) EdgePackets(e int) uint64 { return n.links[e].packets }

// EdgeBusy returns the cumulative busy (serializing) time of directed
// edge e; deltas between samples give windowed edge utilization.
func (n *Network) EdgeBusy(e int) des.Time { return n.links[e].srv.Busy }

// InterNodeEdgeBytes sums the wire bytes forwarded over inter-node edges
// — the traffic that actually crossed the slow fabric tier, counted per
// hop.
func (n *Network) InterNodeEdgeBytes() core.Bytes {
	var sum core.Bytes
	for _, l := range n.links {
		if l.inter {
			sum += l.bytes
		}
	}
	return sum
}

//finepack:allow hotalloc -- link-error accounting runs only on the fault-injection path, off the headline benchmarks
func linkName(src, dst int) string {
	return fmt.Sprintf("%d->%d", src, dst)
}
