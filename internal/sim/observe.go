package sim

import (
	"finepack/internal/des"
	"finepack/internal/obs"
	"finepack/internal/trace"
)

// RunObserved is Run with an attached observability recorder. rec may be
// nil, which selects the plain disabled path: no probe, no observer, no
// sampler — byte-identical behavior and allocation counts to Run.
//
// The recorder only taps read-only state (port busy time, queue depth,
// credit waiters), so an observed run produces the same Result as an
// unobserved one; only the sampler's own events are added to the schedule.
func RunObserved(tr *trace.Trace, par Paradigm, cfg Config, rec *obs.Recorder) (*Result, error) {
	return run(tr, par, cfg, rec)
}

// RunSourceObserved replays a streaming trace source under one paradigm,
// with an attached observability recorder (nil rec selects the plain
// disabled path, exactly as with RunObserved). It is RunObserved for
// traces that never materialize: the runner holds one iteration window
// at a time, so a synthesized or file-backed source replays in O(window)
// memory regardless of trace length. A slice-backed source produces a
// Result identical to Run on the underlying trace.
//
// Unlike Run, the trace is not validated up front (that would require a
// full pass): sources are responsible for yielding valid iterations, and
// a window that fails the source's own validation surfaces as a run
// error at the iteration boundary.
func RunSourceObserved(src trace.IterationSource, par Paradigm, cfg Config, rec *obs.Recorder) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runSource(src, par, cfg, rec)
}

// attachObservability wires the recorder into the scheduler, fabric, and
// warp-coalescing paths. Interface fields are only assigned when rec is
// non-nil so a typed nil never defeats the observers' nil fast paths.
func (r *runner) attachObservability(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	r.obsRec = rec
	r.warpObs = rec
	r.sched.SetProbe(rec)
	if r.graph != nil {
		labels := make([]string, r.graph.NumEdges())
		for e := range labels {
			labels[e] = r.graph.EdgeLabel(e)
		}
		rec.SetEdgeLabels(labels)
	}
	r.net.SetObserver(rec)
}

// startSampler begins deterministic sim-time sampling of link utilization,
// queue occupancy, and credit-stall depth. Each tick reschedules itself
// only while model events remain pending, so sampling never keeps a
// finished run alive.
func (r *runner) startSampler() {
	if r.obsRec == nil {
		return
	}
	s := &sampler{
		r:           r,
		every:       r.obsRec.SampleEvery(),
		prevEgress:  make([]des.Time, r.meta.NumGPUs),
		prevIngress: make([]des.Time, r.meta.NumGPUs),
	}
	if n := r.net.NumEdges(); n > 0 {
		s.prevEdge = make([]des.Time, n)
	}
	s.fire = des.Func(s.tick)
	r.sched.After(s.every, s.fire)
}

// sampler holds the previous-tick port busy totals so each sample reports
// windowed (not cumulative) utilization. Its ticks are scheduled through
// fire, bound once: a tick's samples allocate (series names at first use,
// growing series), which keeps it off the per-event allocation contract.
type sampler struct {
	r           *runner
	fire        des.Handler // des.Func(s.tick)
	every       des.Time
	prevEgress  []des.Time
	prevIngress []des.Time
	// prevEdge tracks per-edge serializer busy time on multi-hop
	// fabrics; nil on the flat fabric.
	prevEdge []des.Time
}

func (s *sampler) tick() {
	r := s.r
	now := r.sched.Now()
	interval := float64(s.every)
	for g := 0; g < r.meta.NumGPUs; g++ {
		eb := r.net.EgressBusy(g)
		r.obsRec.SampleEgressUtilization(g, now, float64(eb-s.prevEgress[g])/interval)
		s.prevEgress[g] = eb
		ib := r.net.IngressBusy(g)
		r.obsRec.SampleIngressUtilization(g, now, float64(ib-s.prevIngress[g])/interval)
		s.prevIngress[g] = ib
		depth := 0
		if g < len(r.emitters) {
			depth = r.emitters[g].e.pendingStores()
		}
		r.obsRec.SampleQueueDepth(g, now, depth)
		r.obsRec.SampleCreditStalls(g, now, r.net.CreditWaiters(g))
	}
	for e := range s.prevEdge {
		eb := r.net.EdgeBusy(e)
		r.obsRec.SampleEdgeUtilization(e, now, float64(eb-s.prevEdge[e])/interval)
		s.prevEdge[e] = eb
	}
	r.obsRec.SampleSchedulerEvents(now, r.sched.Fired())
	if r.sched.Pending() > 0 {
		r.sched.After(s.every, s.fire)
	}
}
