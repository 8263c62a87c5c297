package main

import (
	"context"
	"fmt"
	"math/big"
	"time"

	dsd "repro"
)

// phases is one CoreExact operation replayed as the paper's phases, each
// a call into a public entry point of the dsd API wrapped in a span of
// the benchmark's own.
type phases struct {
	countMs     float64 // Ψ-instance counting (dsd.CliqueDegrees)
	instances   int64   // µ(G,Ψ)
	countMiB    float64
	coreAppMs   float64 // CoreApp, the stream's approx stage (0 when not replayed)
	decomposeMs float64 // (k,Ψ)-core decomposition, as PlanComponents reports it
	decomposeMB float64 // allocation of the PlanComponents call
	planMs      float64 // location and pruning: PlanComponents minus its decomposition
	components  int
	located     int     // vertices over all located components
	iterMs      float64 // Greed++ pre-solve, summed over the component searches
	iters       int
	skips       int
	flowMs      float64 // flow-network build and min-cut, summed likewise
	flowSolves  int
	searchMiB   float64 // allocation of all SolveComponent calls
	evaluateMs  float64 // EvaluateWitness on the best witness
	density     *big.Rat
}

// replay runs q (core-exact, Ψ = h-clique) on a fresh Solver over g
// phase by phase: counting, optionally CoreApp, PlanComponents, one
// SolveComponent per component sharing a ComponentFloor, EvaluateWitness.
// Its density must equal the plain operation's.
func replay(ctx context.Context, g *dsd.Graph, q dsd.Query, h int, withCoreApp bool) (*phases, error) {
	p := &phases{}
	s := dsd.NewSolver(g)

	a0, t := allocBytes(), time.Now()
	deg := dsd.CliqueDegrees(g, h)
	p.countMs, p.countMiB = since(t), mib(allocBytes()-a0)
	for _, d := range deg {
		p.instances += d
	}
	p.instances /= int64(h)

	if withCoreApp {
		t = time.Now()
		if _, err := s.Solve(ctx, dsd.Query{H: h, Algo: dsd.AlgoCoreApp}); err != nil {
			return nil, fmt.Errorf("core-app: %w", err)
		}
		p.coreAppMs = since(t)
	}

	a0, t = allocBytes(), time.Now()
	plan, err := s.PlanComponents(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	p.decomposeMs = ms(plan.Decompose)
	p.planMs = since(t) - p.decomposeMs
	p.decomposeMB = mib(allocBytes() - a0)
	p.components = len(plan.Components)
	for _, c := range plan.Components {
		p.located += len(c)
	}

	best, bestNum, bestDen := plan.Witness, plan.LowerNum, plan.LowerDen
	floor := dsd.NewComponentFloor(plan.LowerNum, plan.LowerDen)
	a0 = allocBytes()
	for _, comp := range plan.Components {
		cr, err := s.SolveComponent(ctx, q, comp, plan.KLocate, floor)
		if err != nil {
			return nil, fmt.Errorf("component search: %w", err)
		}
		p.iterMs += ms(cr.PreSolveTime)
		p.iters += cr.PreSolveIters
		p.flowMs += ms(cr.FlowTime)
		p.flowSolves += cr.FlowSolves
		if cr.PreSolveSkipped {
			p.skips++
		}
		if cr.Witness != nil && rat(cr.DensityNum, cr.DensityDen).Cmp(rat(bestNum, bestDen)) > 0 {
			best, bestNum, bestDen = cr.Witness, cr.DensityNum, cr.DensityDen
			floor.Raise(bestNum, bestDen)
		}
	}
	p.searchMiB = mib(allocBytes() - a0)

	t = time.Now()
	res, err := s.EvaluateWitness(q, best)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	p.evaluateMs = since(t)
	p.density = ratOf(res.Density)
	return p, nil
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// phaseLayers reduces the replays of a run to its per-layer figures:
// the median of each phase over the replays.
func phaseLayers(r *run, ps []*phases) {
	med := func(f func(*phases) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	r.layers["motif.count_ms"] = med(func(p *phases) float64 { return p.countMs })
	r.layers["motif.instances"] = med(func(p *phases) float64 { return float64(p.instances) })
	r.layers["motif.alloc_mib"] = med(func(p *phases) float64 { return p.countMiB })
	r.layers["psicore.coreapp_ms"] = med(func(p *phases) float64 { return p.coreAppMs })
	r.layers["psicore.decompose_ms"] = med(func(p *phases) float64 { return p.decomposeMs })
	r.layers["psicore.alloc_mib"] = med(func(p *phases) float64 { return p.decomposeMB })
	r.layers["core.plan_ms"] = med(func(p *phases) float64 { return p.planMs })
	r.layers["core.components"] = med(func(p *phases) float64 { return float64(p.components) })
	r.layers["core.located_vertices"] = med(func(p *phases) float64 { return float64(p.located) })
	r.layers["iterative.ms"] = med(func(p *phases) float64 { return p.iterMs })
	r.layers["iterative.iters"] = med(func(p *phases) float64 { return float64(p.iters) })
	r.layers["iterative.skips"] = med(func(p *phases) float64 { return float64(p.skips) })
	r.layers["flow.ms"] = med(func(p *phases) float64 { return p.flowMs })
	r.layers["flow.solves"] = med(func(p *phases) float64 { return float64(p.flowSolves) })
	r.layers["core.search_alloc_mib"] = med(func(p *phases) float64 { return p.searchMiB })
	r.layers["core.evaluate_ms"] = med(func(p *phases) float64 { return p.evaluateMs })
}

// shares records what part of a primary operation's median latency the
// replayed phases take: Greed++ plus flow, and counting plus peel (the
// decomposition call counts its own instances).
func shares(r *run, primary *class) {
	op := median(primary.latencies())
	if op <= 0 {
		return
	}
	r.layers["share.flow_presolve_pct"] = 100 * (r.layers["flow.ms"] + r.layers["iterative.ms"]) / op
	r.layers["share.count_peel_pct"] = 100 * r.layers["psicore.decompose_ms"] / op
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
