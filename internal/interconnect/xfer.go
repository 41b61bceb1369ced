package interconnect

// The transfer pipeline. Every message, on either fabric and with or
// without fault injection, runs through one xfer:
//
//	destination credits
//	→ [replay slot]                      (fault injection only)
//	→ per hop: [link credits] → serialize → [latency] → account
//	→ [CRC check: Nak → backoff → hop 0] (fault injection only)
//	→ delivery
//
// Flow control composes two loops: the destination's receiver-buffer
// credits are held end to end, and each link with a credit loop of its
// own bounds its bytes in flight — acquired before the hop serializes,
// released when the hop's last byte arrives at the far end. Links are
// taken in strict route order after the destination credits are held, so
// the loops cannot deadlock against each other. A replayed attempt
// re-acquires link credits hop by hop like the first one.
//
// Fault state is keyed by the end-to-end (src,dst) GPU pair: the
// dead-link and bandwidth checks run once per attempt at hop 0, and the
// degraded fraction stretches every hop of that attempt.
//
// A message's state is one xfer from the network's pool, and the xfer is
// its own des.Handler: a stage that waits on des (credits, a server, a
// latency, a backoff) names the stage to run next and hands over the
// xfer itself, so the scheduler sees the same calls, in the same order,
// as it would with a callback per stage, and no message binds a closure.

import (
	"finepack/internal/core"
	"finepack/internal/des"
)

// xfer carries one message through the pipeline. Its lifecycle is
// strictly linear — at most one of its stages is pending in des at a
// time — which lets one Fire resume every stage and lets a delivered xfer
// go back to Network.xfers for the next message. Credit counts are
// recomputed from wireBytes where they are taken and returned rather
// than stored, and the counts and arena positions are int32, which keeps
// the struct at 80 B: a run makes one xfer per message in flight at its
// peak.
type xfer struct {
	n         *Network
	src, dst  int32
	wireBytes int32
	// at indexes the current hop's link in the route arena, end the
	// arena position just past the route's last hop.
	at, end int32
	// try counts the failed attempts before the current one, frac is its
	// bandwidth fraction.
	try      int32
	frac     float64
	start    des.Time
	hopStart des.Time
	done     des.Handler
	// next is the stage Fire runs.
	next stage
}

// stage names the step a pending Fire runs.
type stage uint8

const (
	stageReserve stage = iota
	stageAttempt
	stageSerialize
	stageForward
	stageArrived
)

// then parks x at stage s and returns it as the handler that resumes it.
func (x *xfer) then(s stage) des.Handler {
	x.next = s
	return x
}

// Fire runs the stage x was parked at.
//
//finepack:hotpath every stage of every message resumes here
func (x *xfer) Fire() {
	switch x.next {
	case stageReserve:
		x.reserve()
	case stageAttempt:
		x.attempt()
	case stageSerialize:
		x.serialize()
	case stageForward:
		x.forward()
	case stageArrived:
		x.arrived()
	}
}

// reserve takes a slot in the source's replay buffer; the packet holds it
// until acked.
func (x *xfer) reserve() { x.n.replaySlots[x.src].Acquire(1, x.then(stageAttempt)) }

// attempt starts one transmission at hop 0.
func (x *xfer) attempt() {
	n := x.n
	if n.fi != nil {
		now := n.sched.Now()
		if n.fi.IsDown(int(x.src), int(x.dst), now) {
			// The LTSSM reports the link down: nothing serializes, the
			// replay timer expires without an Ack and the packet stays
			// in the replay buffer.
			x.nak()
			return
		}
		// Lane down-training stretches serialization on the degraded link.
		x.frac = n.fi.BandwidthFraction(int(x.src), int(x.dst), now)
	}
	i := int(x.src)*n.cfg.NumGPUs + int(x.dst)
	x.at, x.end = n.routeOff[i], n.routeOff[i+1]
	x.enter()
}

// link returns the current hop's link.
func (x *xfer) link() *link { return &x.n.links[x.n.routeArc[x.at]] }

// enter takes the current hop's link credits, if the link has a loop.
func (x *xfer) enter() {
	l := x.link()
	x.hopStart = x.n.sched.Now()
	if l.cred == nil {
		x.serialize()
		return
	}
	l.cred.Acquire(creditsFor(int(x.wireBytes), l.maxCredits), x.then(stageSerialize))
}

func (x *xfer) serialize() {
	l := x.link()
	bw := l.bw
	if bw > 0 {
		bw *= x.frac
	}
	l.srv.Request(des.DurationForBytes(uint64(x.wireBytes), bw), x.then(stageForward))
}

func (x *xfer) forward() {
	l := x.link()
	if l.handoff {
		x.arrived()
		return
	}
	x.n.sched.After(l.latency, x.then(stageArrived))
}

// arrived accounts the hop and moves on: the next hop, or the receiver.
func (x *xfer) arrived() {
	n := x.n
	l := x.link()
	if l.cred != nil {
		l.cred.Release(creditsFor(int(x.wireBytes), l.maxCredits))
	}
	l.bytes += core.Bytes(x.wireBytes)
	l.packets++
	if n.hopObs != nil {
		n.hopObs.HopForwarded(int(n.routeArc[x.at]), int(x.src), int(x.dst), int(x.wireBytes), x.hopStart, n.sched.Now())
	}
	if x.at++; x.at < x.end {
		x.enter()
		return
	}
	if n.fi != nil && n.fi.Corrupted(int(x.src), int(x.dst), int(x.wireBytes), n.sched.Now()) {
		x.nak()
		return
	}
	x.deliver()
}

// nak counts a link error and schedules the replay: the packet stays in
// the replay buffer and retransmits after the backoff.
func (x *xfer) nak() {
	n := x.n
	n.Replays++
	n.ReplayedBytes += core.Bytes(x.wireBytes)
	n.linkErrors[linkName(int(x.src), int(x.dst))]++
	if n.obs != nil {
		n.obs.ReplayScheduled(int(x.src), int(x.dst), int(x.wireBytes), int(x.try), n.sched.Now())
	}
	n.sched.After(n.backoff(int(x.try)), x.then(stageAttempt))
	x.try++
}

// deliver acks the packet, frees its buffers and recycles the xfer.
func (x *xfer) deliver() {
	n := x.n
	if n.fi != nil {
		n.replaySlots[x.src].Release(1)
	}
	n.credits[x.dst].Release(n.destCredits(int(x.wireBytes)))
	n.deliveries++
	n.inFlight--
	if n.obs != nil {
		n.obs.MessageDelivered(int(x.src), int(x.dst), int(x.wireBytes), x.start, n.sched.Now())
	}
	done := x.done
	x.done = nil
	n.xfers.Put(x)
	if done != nil {
		done.Fire()
	}
}
