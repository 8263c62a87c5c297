package main

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	dsd "repro"
)

// The answer checks. Densities are recounted here, from the input's
// adjacency, with no call into the program's counting code; the
// reference optimum comes from the paper's baseline Exact (Algorithm 1),
// which shares no location, pruning or pre-solve code with CoreExact.

// psiName names Ψ = h-clique for h ∈ {2, 3}, the only motifs the
// workloads use.
func psiName(h int) string {
	if h == 2 {
		return "edge"
	}
	return "triangle"
}

// rat is the exact density num/den (0 for den ≤ 0, the empty subgraph).
func rat(num, den int64) *big.Rat {
	if den <= 0 {
		return new(big.Rat)
	}
	return big.NewRat(num, den)
}

func ratOf(d dsd.Density) *big.Rat { return rat(d.Num, d.Den) }

// inducedAdj returns the adjacency of the subgraph induced by vs, in
// positions of vs, given an edge test.
func inducedAdj(vs []int32, edge func(u, v int32) bool) [][]int32 {
	adj := make([][]int32, len(vs))
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if edge(vs[i], vs[j]) {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	return adj
}

// graphAdj returns the adjacency of g's subgraph induced by vs (all of
// g for nil vs), in positions of vs, read from g's neighbor lists.
func graphAdj(g *dsd.Graph, vs []int32) [][]int32 {
	if vs == nil {
		vs = make([]int32, g.N())
		for v := range vs {
			vs[v] = int32(v)
		}
	}
	pos := make(map[int32]int32, len(vs))
	for i, v := range vs {
		pos[v] = int32(i)
	}
	adj := make([][]int32, len(vs))
	for i, v := range vs {
		for _, u := range g.Neighbors(int(v)) {
			if j, ok := pos[u]; ok {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// cliqueDegrees counts the h-cliques (h ∈ {2, 3}) of the graph given by
// adj and each vertex's share of them. Triangles are listed once each by
// orienting every edge towards the endpoint of higher (degree, id) rank.
func cliqueDegrees(adj [][]int32, h int) (int64, []int64) {
	n := len(adj)
	deg := make([]int64, n)
	var total int64
	if h == 2 {
		for v := range adj {
			deg[v] = int64(len(adj[v]))
			total += deg[v]
		}
		return total / 2, deg
	}
	less := func(a, b int32) bool {
		da, db := len(adj[a]), len(adj[b])
		return da < db || da == db && a < b
	}
	out := make([][]int32, n)
	for v := range adj {
		for _, u := range adj[v] {
			if less(int32(v), u) {
				out[v] = append(out[v], u)
			}
		}
	}
	mark := make([]bool, n)
	for v := range out {
		for _, u := range out[v] {
			mark[u] = true
		}
		for _, u := range out[v] {
			for _, w := range out[u] {
				if mark[w] {
					total++
					deg[v]++
					deg[u]++
					deg[w]++
				}
			}
		}
		for _, u := range out[v] {
			mark[u] = false
		}
	}
	return total, deg
}

// density is µ/|V| of the subgraph given by adj.
func density(adj [][]int32, h int) *big.Rat {
	if len(adj) == 0 {
		return new(big.Rat)
	}
	mu, _ := cliqueDegrees(adj, h)
	return big.NewRat(mu, int64(len(adj)))
}

// checkWitness recounts the subgraph induced by witness and fails unless
// its density equals the reported num/den exactly.
func checkWitness(witness []int32, edge func(u, v int32) bool, h int, num, den int64) error {
	if err := distinct(witness); err != nil {
		return err
	}
	got := density(inducedAdj(witness, edge), h)
	if want := rat(num, den); got.Cmp(want) != 0 {
		return fmt.Errorf("witness of %d vertices recounts to %s %s density %s, reported %s",
			len(witness), got.RatString(), psiName(h), got.FloatString(4), want.RatString())
	}
	return nil
}

// graphEdge is the edge test of g, answered from its neighbor lists.
func graphEdge(g *dsd.Graph) func(u, v int32) bool {
	return func(u, v int32) bool {
		nb := g.Neighbors(int(u))
		i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		return i < len(nb) && nb[i] == v
	}
}

func distinct(vs []int32) error {
	seen := make(map[int32]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("witness lists vertex %d twice", v)
		}
		seen[v] = true
	}
	return nil
}

// exactDensity is the optimum Ψ-density of g by the baseline Exact on
// the whole graph — the reference command's figure.
func exactDensity(ctx context.Context, g *dsd.Graph, h int) (*big.Rat, error) {
	res, err := dsd.NewSolver(g).Solve(ctx, dsd.Query{H: h, Algo: dsd.AlgoExact})
	if err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	return ratOf(res.Density), nil
}

// referenceDensity is the optimum Ψ-density of g by the baseline Exact,
// run on the part of g that can hold a densest subgraph given a density
// lower bound that some subgraph of g is known to reach.
//
// Every vertex of a densest subgraph S* has at least ρ* ≥ lower Ψ-
// instances inside S* (removing one with fewer would raise the density),
// so repeatedly dropping vertices whose Ψ-degree in what is left falls
// below lower never removes a vertex of S*. Exact on the remainder
// therefore finds ρ* itself, at a fraction of the cost of Exact on all of
// g (27 s for the DBLP stand-in with Ψ = triangle). The peel is the
// benchmark's own; the callers take lower from a witness they recounted.
func referenceDensity(ctx context.Context, g *dsd.Graph, h int, lower *big.Rat) (*big.Rat, error) {
	var keep []int32 // nil: every vertex of g
	for {
		adj := graphAdj(g, keep)
		_, deg := cliqueDegrees(adj, h)
		var next []int32
		for i, d := range deg {
			if new(big.Rat).SetInt64(d).Cmp(lower) >= 0 {
				v := int32(i)
				if keep != nil {
					v = keep[i]
				}
				next = append(next, v)
			}
		}
		if len(next) == len(adj) {
			break
		}
		keep = next
		if len(keep) == 0 {
			return nil, fmt.Errorf("reference: no vertex has %s-degree ≥ %s", psiName(h), lower.RatString())
		}
	}
	if keep == nil {
		return exactDensity(ctx, g, h)
	}
	adj := graphAdj(g, keep)
	var edges [][2]int
	for v := range adj {
		for _, u := range adj[v] {
			if int(u) > v {
				edges = append(edges, [2]int{v, int(u)})
			}
		}
	}
	return exactDensity(ctx, dsd.FromEdges(len(adj), edges), h)
}

// checkReference compares the density of every operation of c that
// passed its own checks with the reference optimum of g, failing those
// that differ. The first such operation's recounted witness supplies the
// reference's lower bound.
func checkReference(ctx context.Context, r *run, g *dsd.Graph, h int, c *class) {
	var ok []*opResult
	for _, op := range c.ops {
		if op.err == nil && op.density != nil {
			ok = append(ok, op)
		}
	}
	if len(ok) == 0 {
		r.problem("%s: no operation passed its checks, nothing to compare with the reference", c.name)
		return
	}
	ref, err := referenceDensity(ctx, g, h, ok[0].density)
	if err != nil {
		r.problem("%s: %v", c.name, err)
		return
	}
	logf("%s: reference (Exact) %s density %s = %s", c.name, psiName(h), ref.RatString(), ref.FloatString(4))
	for _, op := range ok {
		op.err = sameDensity("Exact reference", ref, op.density)
	}
}

// sameDensity fails unless got equals want exactly.
func sameDensity(what string, want, got *big.Rat) error {
	if got.Cmp(want) != 0 {
		return fmt.Errorf("density %s differs from the %s %s", got.RatString(), what, want.RatString())
	}
	return nil
}
