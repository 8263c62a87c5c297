package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	dsd "repro"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/wire"
)

// serve-rw: an in-process dsdd on a loopback listener, driven by two
// closed-loop clients through internal/service/client. Each client owns a
// registered copy of the Ca-HepTh stand-in and loops: write one edge
// batch, read the triangle-densest subgraph at the new head (computed:
// the primary operation), read it again (a cache hit).

const (
	serveClients = 2
	// batchDeletes edges inside the last answer are deleted per batch;
	// the next batch re-inserts them.
	batchDeletes = 8
	// batchInserts seeded random edges are inserted per batch; the next
	// batch deletes them again, so the graph stays near its start.
	batchInserts = 256
	// warmRounds untimed loops per client end each set-up.
	warmRounds = 3
	// rebuildOneIn: about one version in this many (seeded), and always
	// the last, is re-solved on a fresh Solver over the rebuilt graph.
	rebuildOneIn = 32
	// mutateReplays bounds the versions the traced run replays through
	// Solver.Mutate.
	mutateReplays = 200
)

// loopback is an HTTP server on a fresh 127.0.0.1 port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return l, nil
}

// stop closes the server and waits for its serve loop to end.
func (l *loopback) stop() {
	_ = l.srv.Close() // the serve loop's exit is what stop waits for
	<-l.done
}

type edgeKey uint64

func keyOf(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey(uint64(u)<<32 | uint64(v))
}

func (k edgeKey) pair() [2]int { return [2]int{int(k >> 32), int(k & 0xffffffff)} }

// batch is one write as sent, and what the read after it answered.
type batch struct {
	version  int64
	del, ins [][2]int
	read     *opResult // the computed read at this version (nil before the window)
	rebuild  bool      // re-solve this version from scratch after the window
	bounded  bool      // the read located on carried (k,Ψ)-core bounds
	overhead float64   // read round trip minus the engine's own total, ms
	inWindow bool
}

// rwClient is one closed-loop client with its own graph and its own copy
// of that graph's edge set.
type rwClient struct {
	name    string
	api     *client.Client
	base    *dsd.Graph
	n       int
	edges   map[edgeKey]struct{}
	rng     *rand.Rand // batch contents
	sample  *rand.Rand // which versions are rebuilt
	prevDel [][2]int
	prevIns [][2]int
	last    []int32
	version int64
	log     []*batch

	writes, reads, hits class
}

func newRWClient(api *client.Client, name string, g *dsd.Graph, seed int64) *rwClient {
	c := &rwClient{
		name: name, api: api, base: g, n: g.N(),
		edges:  make(map[edgeKey]struct{}, g.M()),
		rng:    rand.New(rand.NewSource(seed)),
		sample: rand.New(rand.NewSource(seed + 1)),
	}
	g.Edges(func(u, v int) { c.edges[keyOf(u, v)] = struct{}{} })
	c.writes.name, c.reads.name, c.hits.name = "write", "read", "hit"
	return c
}

// count makes the client's operations count towards r's slices.
func (c *rwClient) count(r *run) {
	c.writes.slices, c.reads.slices, c.hits.slices = &r.slices, &r.slices, &r.slices
}

func (c *rwClient) has(u, v int32) bool {
	_, ok := c.edges[keyOf(int(u), int(v))]
	return ok
}

// nextBatch plans the next write: delete batchDeletes edges inside the
// last answer and the previous batch's random inserts; re-insert the
// previous batch's answer deletions and batchInserts new random edges.
// Every delete names a present edge and every insert an absent one.
func (c *rwClient) nextBatch() (del, ins [][2]int) {
	prevIns := make(map[edgeKey]bool, len(c.prevIns))
	for _, e := range c.prevIns {
		prevIns[keyOf(e[0], e[1])] = true
	}
	var inside [][2]int
	for i, u := range c.last {
		for _, v := range c.last[i+1:] {
			if k := keyOf(int(u), int(v)); c.has(u, v) && !prevIns[k] {
				inside = append(inside, k.pair())
			}
		}
	}
	c.rng.Shuffle(len(inside), func(i, j int) { inside[i], inside[j] = inside[j], inside[i] })
	answerDel := inside[:min(batchDeletes, len(inside))]

	taken := make(map[edgeKey]bool)
	for _, e := range c.prevDel {
		taken[keyOf(e[0], e[1])] = true
	}
	var random [][2]int
	for len(random) < batchInserts {
		u, v := c.rng.Intn(c.n), c.rng.Intn(c.n)
		k := keyOf(u, v)
		if _, present := c.edges[k]; u == v || present || taken[k] {
			continue
		}
		taken[k] = true
		random = append(random, k.pair())
	}
	del = append(append([][2]int(nil), answerDel...), c.prevIns...)
	ins = append(append([][2]int(nil), c.prevDel...), random...)
	c.prevDel, c.prevIns = answerDel, random
	return del, ins
}

// round is one loop: write, computed read, cache-hit read.
func (c *rwClient) round(ctx context.Context, inWindow bool) {
	del, ins := c.nextBatch()
	b := &batch{del: del, ins: ins, inWindow: inWindow}
	t := time.Now()
	resp, err := c.api.Mutate(ctx, c.name, wire.MutateRequest{Delete: del, Insert: ins})
	ms := since(t)
	if err == nil {
		err = c.checkWrite(resp, b)
	}
	c.writes.add(ms, err)
	if err != nil {
		// The server's graph is no longer known; later reads would only
		// repeat this failure.
		return
	}
	c.log = append(c.log, b)

	q := wire.QueryV2Request{Graph: c.name, Query: wire.Query{H: 3}}
	t = time.Now()
	rd, err := c.api.QueryV2(ctx, q)
	ms = since(t)
	if err == nil {
		err = c.checkRead(rd, false)
	}
	op := c.reads.add(ms, err)
	if err != nil {
		return
	}
	op.density = rat(rd.Result.DensityNum, rd.Result.DensityDen)
	b.read, b.rebuild = op, c.sample.Intn(rebuildOneIn) == 0
	b.overhead = ms - rd.Result.TotalMs
	b.bounded = rd.Stats != nil && rd.Stats.BoundedCores
	c.last = rd.Result.Vertices

	t = time.Now()
	hit, err := c.api.QueryV2(ctx, q)
	ms = since(t)
	if err == nil {
		err = c.checkRead(hit, true)
	}
	if err == nil && (hit.Result.DensityNum != rd.Result.DensityNum || hit.Result.DensityDen != rd.Result.DensityDen ||
		!slices.Equal(hit.Result.Vertices, rd.Result.Vertices)) {
		err = errors.New("cache hit differs from the computed read it repeats")
	}
	c.hits.add(ms, err)
}

// checkWrite checks that the batch changed exactly what was planned and
// made the next version, then applies it to the client's own edge set.
func (c *rwClient) checkWrite(resp *wire.MutateResponse, b *batch) error {
	if resp.Deleted != len(b.del) || resp.Inserted != len(b.ins) || resp.SkippedDeletes+resp.SkippedInserts != 0 {
		return fmt.Errorf("write changed %d deletes and %d inserts of %d and %d planned", resp.Deleted, resp.Inserted, len(b.del), len(b.ins))
	}
	if resp.Version != c.version+1 {
		return fmt.Errorf("write made version %d after %d", resp.Version, c.version)
	}
	c.version = resp.Version
	b.version = resp.Version
	for _, e := range b.del {
		delete(c.edges, keyOf(e[0], e[1]))
	}
	for _, e := range b.ins {
		c.edges[keyOf(e[0], e[1])] = struct{}{}
	}
	if resp.M != len(c.edges) {
		return fmt.Errorf("server holds %d edges, the client %d", resp.M, len(c.edges))
	}
	return nil
}

// checkRead checks a read of the current head: cached as expected, exact,
// at the version just written, and its witness recounted on the client's
// own edge set.
func (c *rwClient) checkRead(resp *wire.QueryV2Response, wantCached bool) error {
	if resp.Cached != wantCached {
		return fmt.Errorf("read cached=%v, want %v", resp.Cached, wantCached)
	}
	if resp.Query.Version != c.version {
		return fmt.Errorf("read answered version %d, head is %d", resp.Query.Version, c.version)
	}
	res := resp.Result
	if res == nil || res.Degraded {
		return errors.New("read returned no exact result")
	}
	return checkWitness(res.Vertices, c.has, 3, res.DensityNum, res.DensityDen)
}

// rwState is one set-up of serve-rw.
type rwState struct {
	srv     *loopback
	server  *service.Server
	hc      *http.Client
	api     *client.Client
	clients []*rwClient
}

func (s *rwState) release() {
	s.srv.stop()
	s.hc.CloseIdleConnections()
}

func setUpServe(ctx context.Context, r *run) (*rwState, error) {
	t := time.Now()
	graphs := make([]*dsd.Graph, serveClients)
	for i := range graphs {
		var err error
		if graphs[i], err = standIn("Ca-HepTh", r.cfg.seed, int64(1+i)); err != nil {
			return nil, err
		}
	}
	r.layers["graph.build_ms"] = since(t)

	st := &rwState{server: service.NewServer(service.NewRegistry(), service.Config{})}
	var err error
	if st.srv, err = serveLoopback(st.server); err != nil {
		return nil, err
	}
	st.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	st.api = client.New(st.srv.url, st.hc)
	for i, g := range graphs {
		name := fmt.Sprintf("hepth-%d", i)
		if _, err := st.api.RegisterEdges(ctx, name, edgeListText(g)); err != nil {
			st.release()
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		detail, err := st.api.GetGraph(ctx, name)
		if err != nil {
			st.release()
			return nil, err
		}
		c := newRWClient(st.api, name, g, 7919*r.cfg.seed+int64(i))
		c.count(r)
		c.version = detail.Version
		st.clients = append(st.clients, c)
	}
	for _, c := range st.clients {
		for i := 0; i < warmRounds; i++ {
			c.round(ctx, false)
		}
		if err := c.firstErr(); err != nil {
			st.release()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		c.writes.ops, c.reads.ops, c.hits.ops = nil, nil, nil
	}
	return st, nil
}

func (c *rwClient) firstErr() error {
	return errors.Join(c.writes.firstErr(), c.reads.firstErr(), c.hits.firstErr())
}

func serveRW(ctx context.Context, r *run) (*class, error) {
	var st *rwState
	release, err := r.setUp(func() (func(), error) {
		var err error
		if st, err = setUpServe(ctx, r); err != nil {
			return nil, err
		}
		return func() { st.release(); st = nil }, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	logf("input %d clients, each %s, Ψ = triangle; batches delete %d answer edges + the last %d inserts, insert the last deletions + %d random edges",
		serveClients, describe("Ca-HepTh stand-in", st.clients[0].base), batchDeletes, batchInserts, batchInserts)

	before, err := st.api.Stats(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r.measure(func(deadline time.Time) {
		var wg sync.WaitGroup
		for _, c := range st.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					c.round(ctx, true)
				}
			}()
		}
		wg.Wait()
	})
	after, err := st.api.Stats(ctx)
	if err != nil {
		return nil, err
	}

	writes, reads, hits := r.class("write"), r.class("read"), r.class("hit")
	var overhead []float64
	var bounded, computed int
	for _, c := range st.clients {
		writes.ops = append(writes.ops, c.writes.ops...)
		reads.ops = append(reads.ops, c.reads.ops...)
		hits.ops = append(hits.ops, c.hits.ops...)
		for _, b := range c.log {
			if b.inWindow && b.read != nil && b.read.err == nil {
				computed++
				overhead = append(overhead, b.overhead)
				if b.bounded {
					bounded++
				}
			}
		}
		checkVersions(ctx, r, c)
	}
	computes, cacheHits := after.Computes-before.Computes, after.CacheHits-before.CacheHits
	if computes != int64(reads.attempted()) || cacheHits != int64(hits.attempted()) {
		r.problem("/v1/stats counted %d computes and %d cache hits; the run issued %d computed reads and %d repeats",
			computes, cacheHits, reads.attempted(), hits.attempted())
	}
	r.layers["service.computes"] = float64(computes)
	r.layers["service.cache_hits"] = float64(cacheHits)
	r.layers["service.overhead_ms"] = median(overhead)
	r.layers["service.hit_ms"] = median(hits.latencies())
	if computed > 0 {
		r.layers["mutate.bounded_reads"] = 100 * float64(bounded) / float64(computed)
	}
	r.layers["client.mutate_p50_ms"] = median(writes.latencies())
	if wait, err := queueWait(ctx, st, start); err != nil {
		r.problem("query log: %v", err)
	} else {
		r.layers["service.queue_wait_ms"] = wait
	}
	if r.cfg.trace {
		replayMutations(ctx, r, st.clients[0])
	}
	return reads, nil
}

// checkVersions re-solves the sampled versions of c, and always its last,
// on a fresh Solver over the graph rebuilt from c's batches, and checks
// the last version against the Exact reference. A read that disagrees
// fails.
func checkVersions(ctx context.Context, r *run, c *rwClient) {
	edges := make(map[edgeKey]struct{}, len(c.edges))
	c.base.Edges(func(u, v int) { edges[keyOf(u, v)] = struct{}{} })
	var lastRead *batch
	for _, b := range c.log {
		if b.read != nil && b.read.err == nil {
			lastRead = b
		}
	}
	for _, b := range c.log {
		for _, e := range b.del {
			delete(edges, keyOf(e[0], e[1]))
		}
		for _, e := range b.ins {
			edges[keyOf(e[0], e[1])] = struct{}{}
		}
		if b.read == nil || b.read.err != nil || !b.rebuild && b != lastRead {
			continue
		}
		g := graphOf(c.n, edges)
		res, err := dsd.NewSolver(g).Solve(ctx, dsd.Query{H: 3})
		if err != nil {
			b.read.err = fmt.Errorf("rebuild of version %d: %w", b.version, err)
			continue
		}
		b.read.err = sameDensity(fmt.Sprintf("fresh solve of rebuilt version %d", b.version), ratOf(res.Density), b.read.density)
		if b == lastRead && b.read.err == nil {
			var ref *big.Rat
			if ref, err = referenceDensity(ctx, g, 3, b.read.density); err != nil {
				r.problem("%s: %v", c.name, err)
				continue
			}
			b.read.err = sameDensity("Exact reference", ref, b.read.density)
			logf("%s: last version %d, reference (Exact) triangle density %s = %s", c.name, b.version, ref.RatString(), ref.FloatString(4))
		}
	}
}

func graphOf(n int, edges map[edgeKey]struct{}) *dsd.Graph {
	list := make([][2]int, 0, len(edges))
	for k := range edges {
		list = append(list, k.pair())
	}
	return dsd.FromEdges(n, list)
}

// queueWait is the median admission-queue wait of the computed reads the
// service's query log retained from the window.
func queueWait(ctx context.Context, st *rwState, start time.Time) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.srv.url+"/v1/querylog", nil)
	if err != nil {
		return 0, err
	}
	resp, err := st.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ql wire.QueryLogResponse
	if err := json.NewDecoder(resp.Body).Decode(&ql); err != nil {
		return 0, err
	}
	var waits []float64
	for _, ev := range ql.Events {
		if ev.Outcome == "ok" && !ev.Cached && ev.TimeUnixNs >= start.UnixNano() {
			waits = append(waits, float64(ev.QueueWaitNs)/1e6)
		}
	}
	return median(waits), nil
}

// replayMutations replays c's first batches through the library:
// Solver.Mutate, then the same read on the same Solver. Each read must
// answer the density the service answered at that version.
func replayMutations(ctx context.Context, r *run, c *rwClient) {
	replays := r.untimedClass("replay")
	s := dsd.NewSolver(c.base)
	if _, err := s.Solve(ctx, dsd.Query{H: 3}); err != nil {
		r.problem("mutation replay: %v", err)
		return
	}
	var mutateMs []float64
	for i, b := range c.log {
		if i == mutateReplays {
			break
		}
		t := time.Now()
		_, err := s.Mutate(ctx, dsd.Mutation{Delete: b.del, Insert: b.ins})
		mutateMs = append(mutateMs, since(t))
		if err != nil {
			replays.add(0, err)
			continue
		}
		t = time.Now()
		res, err := s.Solve(ctx, dsd.Query{H: 3})
		op := replays.add(since(t), err)
		if err == nil && b.read != nil && b.read.err == nil {
			op.err = sameDensity("service read", b.read.density, ratOf(res.Density))
		}
	}
	r.layers["mutate.ms"] = median(mutateMs)
}
