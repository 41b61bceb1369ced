package interconnect

import (
	"fmt"
	"sort"
	"strings"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/faults"
)

// Reliability: when fault injection is enabled the network runs a
// data-link-layer Ack/Nak protocol as stages of the one transfer
// pipeline (xfer.go), over the same link and credit model.
//
//   - Every transmission attempt re-serializes the packet through every
//     link of its route; the receiver then draws the corruption lottery
//     (CRC check).
//   - A corrupted (or dead-link) attempt is Nak'd: the packet stays in
//     the transmitter's replay buffer and retransmits after an
//     ack-timeout with bounded exponential backoff.
//   - The replay buffer holds a bounded number of un-acked packets per
//     egress port; when it fills, the port stalls (DLLP back-pressure)
//     until an Ack frees a slot.
//   - A credit watchdog observes delivery progress. Traffic pending with
//     no delivery for a whole window means the credit loop is stalled
//     (e.g. a dead link pinning credits through its replay loop); the
//     watchdog recovers with a link-level reset that retrains dead links
//     at a degraded width, turning a silent deadlock into a diagnosable,
//     gracefully-degraded run.
//
// Everything runs on the single-threaded DES kernel with seeded random
// streams, so identical configurations give bit-identical results.

// Reset records one watchdog link-level reset.
type Reset struct {
	// At is the simulated time of the reset.
	At des.Time
	// Links is the number of dead-link fault events retired.
	Links int
}

// backoff returns the replay delay after the given number of failed
// attempts: the ack timeout doubling per retry, bounded at
// AckTimeout << MaxBackoffShift.
func (n *Network) backoff(try int) des.Time {
	if try > faults.MaxBackoffShift {
		try = faults.MaxBackoffShift
	}
	return n.cfg.Faults.AckTimeout << try
}

// armWatchdog schedules the next progress check if faults are injected,
// traffic is pending and no check is queued. The watchdog goes dormant
// when the network drains, so fault-free idle periods add no events and
// the run can terminate.
func (n *Network) armWatchdog() {
	if n.fi == nil || n.cfg.Faults.DisableWatchdog || n.watchdogArmed || n.inFlight == 0 {
		return
	}
	n.watchdogArmed = true
	n.lastProgress = n.deliveries
	n.sched.After(n.cfg.Faults.WatchdogWindow, n.tick)
}

// watchdogTick checks for delivery progress over the last window. A stall
// with traffic pending triggers a link-level reset: dead links retrain at
// the configured degraded fraction and their replay loops then succeed.
func (n *Network) watchdogTick() {
	n.watchdogArmed = false
	if n.inFlight == 0 {
		return
	}
	if n.deliveries == n.lastProgress {
		if retired := n.fi.RetrainDown(n.sched.Now()); retired > 0 {
			n.RecoveredStalls++
			n.resets = append(n.resets, Reset{At: n.sched.Now(), Links: retired})
			if n.obs != nil {
				n.obs.LinkReset(n.sched.Now(), retired)
			}
		}
	}
	n.armWatchdog()
}

// LinkErrors returns a copy of the per-link injected-error counts, nil
// when no error occurred (or fault injection is off).
func (n *Network) LinkErrors() map[string]uint64 {
	if len(n.linkErrors) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(n.linkErrors))
	for k, v := range n.linkErrors {
		out[k] = v
	}
	return out
}

// Resets returns the watchdog reset log.
func (n *Network) Resets() []Reset { return append([]Reset(nil), n.resets...) }

// FaultReport summarizes the run's reliability behavior for diagnosis.
type FaultReport struct {
	Replays         uint64
	ReplayedBytes   core.Bytes
	RecoveredStalls uint64
	LinkErrors      map[string]uint64
	Resets          []Reset
}

// FaultReport assembles the diagnosable report of the run.
func (n *Network) FaultReport() FaultReport {
	return FaultReport{
		Replays:         n.Replays,
		ReplayedBytes:   n.ReplayedBytes,
		RecoveredStalls: n.RecoveredStalls,
		LinkErrors:      n.LinkErrors(),
		Resets:          n.Resets(),
	}
}

func (r FaultReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replays=%d replayed_bytes=%d recovered_stalls=%d",
		r.Replays, r.ReplayedBytes, r.RecoveredStalls)
	if len(r.LinkErrors) > 0 {
		links := make([]string, 0, len(r.LinkErrors))
		for l := range r.LinkErrors {
			links = append(links, l)
		}
		sort.Strings(links)
		b.WriteString(" errors{")
		for i, l := range links {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", l, r.LinkErrors[l])
		}
		b.WriteByte('}')
	}
	for _, rs := range r.Resets {
		fmt.Fprintf(&b, " reset@%v(links=%d)", rs.At, rs.Links)
	}
	return b.String()
}
