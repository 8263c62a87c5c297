package main

import (
	"context"
	"math/big"
	"testing"

	dsd "repro"
)

// bowtie is two triangles sharing vertex 2, plus a pendant vertex 5.
func bowtie() *dsd.Graph {
	return dsd.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 5}})
}

func TestWitnessCheckRejectsAWrongDensity(t *testing.T) {
	g := bowtie()
	w := []int32{0, 1, 2, 3, 4}
	if err := checkWitness(w, graphEdge(g), 3, 2, 5); err != nil {
		t.Fatalf("true triangle density 2/5 rejected: %v", err)
	}
	if err := checkWitness(w, graphEdge(g), 2, 6, 5); err != nil {
		t.Fatalf("true edge density 6/5 rejected: %v", err)
	}
	if err := checkWitness(w, graphEdge(g), 3, 3, 5); err == nil {
		t.Fatal("wrong triangle density 3/5 accepted")
	}
	if err := checkWitness(w, graphEdge(g), 3, 4, 10); err != nil {
		t.Fatalf("unreduced 4/10 rejected: %v", err)
	}
	if err := checkWitness([]int32{0, 1, 2, 2}, graphEdge(g), 3, 1, 4); err == nil {
		t.Fatal("witness listing a vertex twice accepted")
	}
}

func TestCliqueDegreesAgreeWithTheProgram(t *testing.T) {
	g := dsd.GenerateER(300, 0.08, 5)
	adj := graphAdj(g, nil)
	for _, h := range []int{2, 3} {
		total, deg := cliqueDegrees(adj, h)
		if want := dsd.CountCliques(g, h); total != want {
			t.Fatalf("h=%d: %d cliques, program counts %d", h, total, want)
		}
		want := dsd.CliqueDegrees(g, h)
		for v := range deg {
			if deg[v] != want[v] {
				t.Fatalf("h=%d: vertex %d degree %d, program %d", h, v, deg[v], want[v])
			}
		}
	}
}

// The reference peels with a lower bound before running Exact; with any
// bound a real subgraph reaches, it must agree with Exact on all of g.
func TestReferenceAgreesWithExactOnTheWholeGraph(t *testing.T) {
	ctx := context.Background()
	g := multiCommunity(3)
	want, err := exactDensity(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, lower := range []*big.Rat{big.NewRat(1, 1), big.NewRat(150, 1), want} {
		got, err := referenceDensity(ctx, g, 3, lower)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("lower bound %s: reference %s, Exact on the whole graph %s", lower.RatString(), got.RatString(), want.RatString())
		}
	}
	if _, err := referenceDensity(ctx, g, 3, new(big.Rat).Add(want, big.NewRat(1000, 1))); err == nil {
		t.Fatal("a lower bound above every Ψ-degree still produced a reference")
	}
}
