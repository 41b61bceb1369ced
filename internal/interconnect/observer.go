package interconnect

import "finepack/internal/des"

// Observer receives fabric-level events for the observability layer. The
// interface is defined here (not in internal/obs) so this package stays
// free of the obs dependency; *obs.Recorder satisfies it structurally.
//
// Callbacks run inside DES event callbacks and must not schedule events or
// mutate fabric state.
type Observer interface {
	// MessageDelivered fires when the last byte of a message reaches the
	// destination ingress port. start is the Send call time, so the span
	// covers credit stalls, serialization, and (on the fault path) every
	// replay attempt.
	MessageDelivered(src, dst, wireBytes int, start, end des.Time)
	// ReplayScheduled fires when an attempt is Nak'd (corruption or dead
	// link) and a retransmission is queued; try counts prior attempts.
	ReplayScheduled(src, dst, wireBytes, try int, at des.Time)
	// LinkReset fires when the credit watchdog retires dead links with a
	// link-level reset.
	LinkReset(at des.Time, links int)
}

// HopObserver is an optional extension of Observer for multi-hop
// topologies: observers that also implement it receive one callback per
// edge traversal, so timelines can show which fabric tier a message
// crossed and where contention lives. Implementations follow the same
// rules as Observer callbacks.
type HopObserver interface {
	// HopForwarded fires when a message's last byte arrives at the far
	// end of directed edge e; start covers the hop's edge-credit stall,
	// serialization, and latency.
	HopForwarded(edge, src, dst, wireBytes int, start, end des.Time)
}

// SetObserver attaches (or with nil, detaches) a fabric observer. Callers
// holding a possibly-nil concrete pointer must guard the call — assigning
// a typed nil would defeat the n.obs != nil fast path. Observers that also
// implement HopObserver receive per-hop callbacks on multi-hop fabrics
// (the flat fabric's ports and trunks are not edges).
func (n *Network) SetObserver(o Observer) {
	n.obs = o
	n.hopObs = nil
	if h, ok := o.(HopObserver); ok && n.cfg.Topology != nil {
		n.hopObs = h
	}
}

// EgressBusy returns the cumulative busy time of a GPU's egress port: on
// a multi-hop fabric, the mean over the first-hop edges its routes leave
// on. Deltas between samples give windowed link utilization.
func (n *Network) EgressBusy(gpu int) des.Time { return n.meanBusy(n.egress[gpu]) }

// IngressBusy returns the cumulative busy time of a GPU's ingress port:
// on a multi-hop fabric, the mean over the last-hop edges its routes
// arrive on.
func (n *Network) IngressBusy(gpu int) des.Time { return n.meanBusy(n.ingress[gpu]) }

func (n *Network) meanBusy(ports []int32) des.Time {
	var sum des.Time
	for _, l := range ports {
		sum += n.links[l].srv.Busy
	}
	return sum / des.Time(len(ports))
}

// CreditWaiters returns the senders currently stalled on credits toward
// dst.
func (n *Network) CreditWaiters(dst int) int { return n.credits[dst].Waiters() }
