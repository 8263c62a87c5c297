package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	dsd "repro"
	"repro/internal/datasets"
)

// Inputs. The program sees only the graphs made here, and the seed fixes
// them: each input is one of the program's fixed generators with its
// vertex ids rotated by an offset drawn from the seed (v becomes
// (v+offset) mod n). The seed thus changes every id and the order the
// program meets vertices in, but neither the structure nor, apart from
// the one wrap-around, the id locality of the generator, so the work of
// an operation and the optimum are the same for every seed. Moving the
// generators' own seeds instead moves the triangle count of the
// power-law stand-ins, and with it stream-large's operation time, by up
// to a fifth from seed to seed; a random permutation of the ids costs a
// quarter more time per operation and spreads it as widely.

// standIn is the program's named dataset stand-in at paper size,
// relabeled by the seed; salt tells apart several copies in one run.
func standIn(name string, seed, salt int64) (*dsd.Graph, error) {
	spec, err := datasets.Get(name)
	if err != nil {
		return nil, err
	}
	return rotate(spec.LoadDiv(1), 1000*seed+salt), nil
}

// multiCommunity is the sharding stress instance — 10 communities, each a
// 30-clique with fringe and padding, 1,320 vertices and 15,645 edges —
// relabeled by the seed.
func multiCommunity(seed int64) *dsd.Graph {
	return rotate(dsd.GenerateMultiCommunity(10, 30, 12, 18, 20, 1), seed)
}

// rotate returns g with vertex v renamed to (v+offset) mod n, for an
// offset drawn from seed.
func rotate(g *dsd.Graph, seed int64) *dsd.Graph {
	n := g.N()
	offset := rand.New(rand.NewSource(seed)).Intn(n)
	edges := make([][2]int, 0, g.M())
	g.Edges(func(u, v int) { edges = append(edges, [2]int{(u + offset) % n, (v + offset) % n}) })
	return dsd.FromEdges(n, edges)
}

// edgeListText is g as the whitespace edge list the service registers.
func edgeListText(g *dsd.Graph) string {
	var b strings.Builder
	g.Edges(func(u, v int) {
		b.WriteString(strconv.Itoa(u))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('\n')
	})
	return b.String()
}

// describe is a one-line summary of an input for the run's log.
func describe(name string, g *dsd.Graph) string {
	return fmt.Sprintf("%s: %d vertices, %d edges", name, g.N(), g.M())
}
