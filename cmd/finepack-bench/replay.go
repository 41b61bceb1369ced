package main

import (
	"io"
	"time"

	"finepack/internal/core"
	"finepack/internal/des"
	"finepack/internal/gpusim"
	"finepack/internal/interconnect"
	"finepack/internal/sim"
	"finepack/internal/topo"
	"finepack/internal/trace"
)

// replayStats times single layers through their public APIs. The counts
// are those of the replay, which need not equal the simulated ones.
type replayStats struct {
	warps, stores, packets, routes            float64
	coalesce, write, depacketize, send, route time.Duration
	// hops keeps the route lookups observable to the compiler.
	hops int
}

// replayLayers feeds a trace through the store path one layer at a time,
// one iteration window at a time: gpusim.Coalescer turns warp stores into
// transactions, one core.Queue per GPU packs them (flushed at each
// iteration's release), core.DepacketizeAppend unpacks the packets, and
// their wire sizes are sent through a fresh interconnect.Network (and
// routed by topo.Graph under a topology).
func replayLayers(src trace.IterationSource, cfg sim.Config, r *replayStats) error {
	meta := src.Meta()
	if err := src.Reset(); err != nil {
		return err
	}
	netCfg := interconnect.DefaultConfig(meta.NumGPUs, cfg.Gen.Bandwidth())
	var graph *topo.Graph
	if cfg.Topology != nil {
		g, err := topo.Build(cfg.Topology)
		if err != nil {
			return err
		}
		graph, netCfg.Topology = g, g
	}
	sched := des.NewScheduler()
	net, err := interconnect.New(sched, netCfg)
	if err != nil {
		return err
	}

	type emitted struct {
		src int
		p   *core.Packet
	}
	var pkts []emitted
	queues := make([]*core.Queue, meta.NumGPUs)
	for g := range queues {
		g := g
		q, err := core.NewQueue(cfg.FinePack, func(p *core.Packet) { pkts = append(pkts, emitted{g, p}) })
		if err != nil {
			return err
		}
		queues[g] = q
	}
	type tx struct {
		st     core.Store
		atomic bool
	}
	txs := make([][]tx, meta.NumGPUs)
	var (
		coal     gpusim.Coalescer
		unpacked []core.Store
	)
	delivered := func() {}
	for {
		it, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}

		t := time.Now()
		for g, w := range it.PerGPU {
			txs[g] = txs[g][:0]
			for _, ws := range w.Stores {
				var out []core.Store
				if ws.Atomic {
					out, err = coal.Expand(ws)
				} else {
					out, err = coal.Coalesce(ws)
				}
				if err != nil {
					return err
				}
				for _, st := range out {
					txs[g] = append(txs[g], tx{st, ws.Atomic})
				}
			}
			r.warps += float64(len(w.Stores))
		}
		r.coalesce += time.Since(t)

		t = time.Now()
		for g, q := range queues {
			for _, x := range txs[g] {
				if x.atomic {
					err = q.Atomic(x.st)
				} else {
					err = q.Write(x.st)
				}
				if err != nil {
					return err
				}
			}
			q.FlushAll(core.CauseRelease)
		}
		r.write += time.Since(t)
		for g := range txs {
			r.stores += float64(len(txs[g]))
		}

		t = time.Now()
		for _, e := range pkts {
			unpacked = core.DepacketizeAppend(unpacked[:0], e.p)
		}
		r.depacketize += time.Since(t)

		t = time.Now()
		for _, e := range pkts {
			net.Send(e.src, e.p.Dst, e.p.WireBytes, delivered)
		}
		sched.Run()
		r.send += time.Since(t)

		if graph != nil {
			t = time.Now()
			for _, e := range pkts {
				r.hops += len(graph.Route(e.src, e.p.Dst))
			}
			r.route += time.Since(t)
			r.routes += float64(len(pkts))
		}
		r.packets += float64(len(pkts))
		clear(pkts)
		pkts = pkts[:0]
	}
}
