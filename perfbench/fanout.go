package main

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	dsd "repro"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/shard"
)

// shard-fanout: a shard.Coordinator over two loopback shard workers, each
// a full service.Server holding the multi-community stress instance. Each
// operation is one core-exact triangle query with a fresh
// coordinator-side Solver; the workers stay warm, as they do in service.

const fanoutGraph = "multicommunity"

// freshSource hands the coordinator the Solver of the current operation.
type freshSource struct{ cur atomic.Pointer[dsd.Solver] }

func (f *freshSource) SolverFor(name string) (*dsd.Solver, bool) {
	if name != fanoutGraph {
		return nil, false
	}
	return f.cur.Load(), true
}

// workerTap wraps a shard worker's handler from outside: it counts the
// bound rebroadcasts the worker receives and times the component
// searches it serves.
type workerTap struct {
	h          http.Handler
	bounds     atomic.Int64
	searchNs   atomic.Int64
	components atomic.Int64
}

func (w *workerTap) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	switch req.URL.Path {
	case "/v3/bound":
		w.bounds.Add(1)
	case "/v3/component":
		t := time.Now()
		w.h.ServeHTTP(rw, req)
		w.searchNs.Add(int64(time.Since(t)))
		w.components.Add(1)
		return
	}
	w.h.ServeHTTP(rw, req)
}

// fanoutState is one set-up of shard-fanout.
type fanoutState struct {
	g       *dsd.Graph
	src     *freshSource
	coord   *shard.Coordinator
	taps    []*workerTap
	workers []*loopback
	hc      *http.Client
}

func (s *fanoutState) release() {
	for _, w := range s.workers {
		w.stop()
	}
	s.hc.CloseIdleConnections()
}

func (s *fanoutState) solve(ctx context.Context) (*dsd.Result, error) {
	s.src.cur.Store(dsd.NewSolver(s.g))
	return s.coord.Solve(ctx, fanoutGraph, dsd.Query{H: 3})
}

func (s *fanoutState) tapped() (bounds, searchNs int64) {
	for _, t := range s.taps {
		bounds += t.bounds.Load()
		searchNs += t.searchNs.Load()
	}
	return bounds, searchNs
}

func setUpFanout(ctx context.Context, r *run) (*fanoutState, error) {
	t := time.Now()
	st := &fanoutState{g: multiCommunity(r.cfg.seed), src: &freshSource{}, hc: &http.Client{Transport: &http.Transport{}}}
	r.layers["graph.build_ms"] = since(t)
	edges := edgeListText(st.g)
	var addrs []string
	for i := 0; i < 2; i++ {
		tap := &workerTap{h: service.NewServer(service.NewRegistry(), service.Config{})}
		lb, err := serveLoopback(tap)
		if err != nil {
			st.release()
			return nil, err
		}
		st.taps, st.workers = append(st.taps, tap), append(st.workers, lb)
		if _, err := client.New(lb.url, st.hc).RegisterEdges(ctx, fanoutGraph, edges); err != nil {
			st.release()
			return nil, fmt.Errorf("register on worker %d: %w", i, err)
		}
		addrs = append(addrs, lb.url)
	}
	st.coord = shard.NewCoordinator(st.src, shard.NewSet(addrs...), shard.Config{HTTPClient: st.hc})
	for i := 0; i < 2; i++ {
		if _, err := st.solve(ctx); err != nil {
			st.release()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

func shardFanout(ctx context.Context, r *run) (*class, error) {
	var st *fanoutState
	release, err := r.setUp(func() (func(), error) {
		var err error
		if st, err = setUpFanout(ctx, r); err != nil {
			return nil, err
		}
		return func() { st.release(); st = nil }, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	logf("input %s in %d components, Ψ = triangle, 2 shard workers", describe("multi-community instance", st.g), 10)

	solves := r.class("solve")
	replays := r.replayClass()
	var ps []*phases
	var remote []float64
	var fallbacks, hedges int
	bounds0, search0 := st.tapped()
	r.measure(func(deadline time.Time) {
		for time.Now().Before(deadline) {
			t := time.Now()
			res, err := st.solve(ctx)
			elapsed := since(t)
			if err != nil {
				solves.add(0, err)
				continue
			}
			op := solves.add(elapsed, checkWitness(res.Vertices, graphEdge(st.g), 3, res.Density.Num, res.Density.Den))
			op.density = ratOf(res.Density)
			remote = append(remote, float64(res.Stats.ShardRemote))
			fallbacks += res.Stats.ShardFallbacks
			hedges += res.Stats.ShardHedges
			if res.Stats.ShardRemote+res.Stats.ShardFallbacks < res.Stats.ShardComponents {
				op.err = fmt.Errorf("%d of %d components answered", res.Stats.ShardRemote+res.Stats.ShardFallbacks, res.Stats.ShardComponents)
			}
			if !r.cfg.trace {
				continue
			}
			t = time.Now()
			p, err := replay(ctx, st.g, dsd.Query{H: 3}, 3, false)
			rop := replays.add(since(t), err)
			if err == nil {
				ps = append(ps, p)
				rop.err = sameDensity("sharded solve", op.density, p.density)
			}
		}
	})
	bounds1, search1 := st.tapped()

	local, err := dsd.NewSolver(st.g).Solve(ctx, dsd.Query{H: 3})
	if err != nil {
		r.problem("local solve: %v", err)
	} else {
		for _, op := range solves.ops {
			if op.err == nil {
				op.err = sameDensity("local Solver.Solve", ratOf(local.Density), op.density)
			}
		}
	}
	checkReference(ctx, r, st.g, 3, solves)

	ops := float64(solves.attempted())
	r.layers["shard.remote"] = median(remote)
	r.layers["shard.fallbacks"] = float64(fallbacks)
	r.layers["shard.hedges"] = float64(hedges)
	r.layers["shard.bounds"] = float64(bounds1-bounds0) / ops
	r.layers["shard.worker_ms"] = float64(search1-search0) / 1e6 / ops
	if r.cfg.trace {
		phaseLayers(r, ps)
		shares(r, solves)
	}
	return solves, nil
}
