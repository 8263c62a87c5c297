package main

import (
	"context"
	"fmt"
	"io"
	"time"

	dsd "repro"
)

// referenceInput is one input the workloads solve, as the reference
// command names it.
type referenceInput struct {
	workload, input string
	h               int
	large           bool // Exact takes tens of seconds
	load            func(seed int64) (*dsd.Graph, error)
}

func referenceInputs() []referenceInput {
	standInFor := func(name string, salt int64) func(int64) (*dsd.Graph, error) {
		return func(seed int64) (*dsd.Graph, error) { return standIn(name, seed, salt) }
	}
	ins := []referenceInput{
		{"stream-large", "DBLP", 3, true, standInFor("DBLP", 0)},
		{"exact-flow", "Ca-HepTh", 2, false, standInFor("Ca-HepTh", 0)},
	}
	for i := 0; i < serveClients; i++ {
		ins = append(ins, referenceInput{"serve-rw", fmt.Sprintf("hepth-%d@start", i), 3, false, standInFor("Ca-HepTh", int64(1+i))})
	}
	return append(ins, referenceInput{"shard-fanout", fanoutGraph, 3, false,
		func(seed int64) (*dsd.Graph, error) { return multiCommunity(seed), nil }})
}

// printReferences regenerates, for one seed, the optimum density of every
// workload input by the baseline Exact on the whole graph, one line each:
//
//	ref <workload> <input> <Ψ> <num>/<den>
//
// serve-rw's inputs are the graphs as registered, before any write.
// skipLarge leaves out the inputs on which Exact takes tens of seconds.
func printReferences(ctx context.Context, w io.Writer, seed int64, skipLarge bool) error {
	for _, in := range referenceInputs() {
		if skipLarge && in.large {
			continue
		}
		g, err := in.load(seed)
		if err != nil {
			return err
		}
		t := time.Now()
		d, err := exactDensity(ctx, g, in.h)
		if err != nil {
			return fmt.Errorf("%s %s: %w", in.workload, in.input, err)
		}
		logf("%s %s: Exact in %.1fs", in.workload, in.input, time.Since(t).Seconds())
		fmt.Fprintf(w, "ref %s %s %s %s\n", in.workload, in.input, psiName(in.h), d.RatString())
	}
	return nil
}
