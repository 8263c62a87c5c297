package main

import (
	"context"
	"time"

	dsd "repro"
)

// exact-flow: a fresh Solver per operation solves the edge-densest
// subgraph of the Ca-HepTh stand-in (9,877 vertices, 34,920 edges) with
// CoreExact at default settings. The flow-network binary search and the
// Greed++ pre-solve take most of each operation; the peel takes little.
func exactFlow(ctx context.Context, r *run) (*class, error) {
	q := dsd.Query{}
	var g *dsd.Graph
	release, err := r.setUp(func() (func(), error) {
		t := time.Now()
		var err error
		if g, err = standIn("Ca-HepTh", r.cfg.seed, 0); err != nil {
			return nil, err
		}
		r.layers["graph.build_ms"] = since(t)
		for i := 0; i < 3; i++ {
			if _, err := dsd.NewSolver(g).Solve(ctx, q); err != nil {
				return nil, err
			}
		}
		return func() { g = nil }, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	logf("input %s, Ψ = edge", describe("Ca-HepTh stand-in", g))

	solves := r.class("solve")
	replays := r.replayClass()
	var ps []*phases
	var flowNodes []float64
	r.measure(func(deadline time.Time) {
		for time.Now().Before(deadline) {
			t := time.Now()
			res, err := dsd.NewSolver(g).Solve(ctx, q)
			elapsed := since(t)
			if err != nil {
				solves.add(0, err)
				continue
			}
			op := solves.add(elapsed, checkWitness(res.Vertices, graphEdge(g), 2, res.Density.Num, res.Density.Den))
			op.density = ratOf(res.Density)
			if !r.cfg.trace {
				continue
			}
			flowNodes = append(flowNodes, float64(sum(res.Stats.FlowNodes)))
			t = time.Now()
			p, err := replay(ctx, g, q, 2, false)
			rop := replays.add(since(t), err)
			if err == nil {
				ps = append(ps, p)
				rop.err = sameDensity("solve", op.density, p.density)
			}
		}
	})
	checkReference(ctx, r, g, 2, solves)
	if r.cfg.trace {
		phaseLayers(r, ps)
		shares(r, solves)
		r.layers["flow.nodes"] = median(flowNodes)
	}
	return solves, nil
}
