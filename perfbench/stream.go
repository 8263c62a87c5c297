package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	dsd "repro"
)

// stream-large: a fresh Solver per operation streams the triangle-densest
// subgraph of the DBLP stand-in at paper size (425,957 vertices, about
// 1.07M edges) through to its final answer. Ψ-instance counting and the
// (k,Ψ)-core peel take most of each operation; CoreApp gives the first
// answer; flow runs one small search.

// streamed is one finished stream: its final answer, its time to first
// and final answer, and whether its intervals behaved.
type streamed struct {
	final   dsd.Answer
	firstMs float64
	ms      float64
	events  int
	stats   dsd.QueryStats // only from StreamFunc (traced runs)
}

// streamOnce reads Solver.Stream on a fresh Solver through to its final
// answer and checks the stream. withStats reads the same stream through
// StreamFunc instead, which also returns the run's QueryStats.
func streamOnce(ctx context.Context, g *dsd.Graph, q dsd.Query, withStats bool) (*streamed, error) {
	start := time.Now()
	st := &streamed{}
	var events []dsd.Answer
	add := func(a dsd.Answer) {
		if len(events) == 0 {
			st.firstMs = since(start)
		}
		events = append(events, a)
	}
	s := dsd.NewSolver(g)
	if withStats {
		res, err := s.StreamFunc(ctx, q, add)
		if err != nil {
			return nil, err
		}
		st.stats = res.Stats
	} else {
		ch, err := s.Stream(ctx, q)
		if err != nil {
			return nil, err
		}
		for a := range ch {
			add(a)
		}
	}
	st.ms = since(start)
	st.events = len(events)
	return st, checkStream(events, st)
}

// checkStream checks that no event widens the interval, that the stream
// ends in an exact final answer, and that this answer lies inside every
// streamed interval; it stores the final answer in st.
func checkStream(events []dsd.Answer, st *streamed) error {
	if len(events) == 0 {
		return errors.New("stream closed without an answer")
	}
	last := events[len(events)-1]
	if last.Err != nil {
		return fmt.Errorf("stream failed: %w", last.Err)
	}
	if !last.Final || last.Degraded {
		return fmt.Errorf("stream ended without an exact final answer (final=%v degraded=%v)", last.Final, last.Degraded)
	}
	final := ratOf(last.Density)
	for i, a := range events {
		lo := ratOf(a.Density)
		if i > 0 {
			if lo.Cmp(ratOf(events[i-1].Density)) < 0 || a.Bound > events[i-1].Bound {
				return fmt.Errorf("event %d (%s) widens the interval", i, a.Stage)
			}
		}
		if final.Cmp(lo) < 0 || !atMost(final, a.Bound) {
			return fmt.Errorf("final density %s lies outside event %d's interval [%s, %g]",
				final.RatString(), i, lo.RatString(), a.Bound)
		}
	}
	st.final = last
	return nil
}

// atMost reports d ≤ upper, allowing the upper bound the float rounding
// a bound computed from d itself may carry.
func atMost(d *big.Rat, upper float64) bool {
	f, _ := d.Float64()
	return f <= upper*(1+1e-12)
}

func streamLarge(ctx context.Context, r *run) (*class, error) {
	q := dsd.Query{H: 3}
	var g *dsd.Graph
	release, err := r.setUp(func() (func(), error) {
		t := time.Now()
		var err error
		if g, err = standIn("DBLP", r.cfg.seed, 0); err != nil {
			return nil, err
		}
		r.layers["graph.build_ms"] = since(t)
		_, err = streamOnce(ctx, g, q, false)
		return func() { g = nil }, err
	})
	if err != nil {
		return nil, err
	}
	defer release()
	logf("input %s, Ψ = triangle", describe("DBLP stand-in", g))

	streams := r.class("stream")
	replayClass := r.replayClass()
	var replays []*phases
	var events, flowNodes []float64
	r.measure(func(deadline time.Time) {
		for time.Now().Before(deadline) {
			st, err := streamOnce(ctx, g, q, r.cfg.trace)
			if err != nil {
				streams.add(0, err)
				continue
			}
			op := streams.add(st.ms, checkWitness(st.final.Witness, graphEdge(g), 3, st.final.Density.Num, st.final.Density.Den))
			op.firstMs, op.density = st.firstMs, ratOf(st.final.Density)
			events = append(events, float64(st.events))
			if !r.cfg.trace {
				continue
			}
			flowNodes = append(flowNodes, float64(sum(st.stats.FlowNodes)))
			t := time.Now()
			p, err := replay(ctx, g, q, 3, true)
			rop := replayClass.add(since(t), err)
			if err == nil {
				replays = append(replays, p)
				rop.err = sameDensity("stream", op.density, p.density)
			}
		}
	})
	checkReference(ctx, r, g, 3, streams)
	r.layers["plan.events"] = median(events)
	if r.cfg.trace {
		phaseLayers(r, replays)
		shares(r, streams)
		r.layers["flow.nodes"] = median(flowNodes)
	}
	return streams, nil
}
