// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every answer, and prints the workload's
// end-to-end metrics (or, with --trace 1, its per-layer metrics) as one
// JSON object on the last line of standard output. See README.md.
//
//	perfbench --workload stream-large --seed 1 --seconds 20 --trace 0
//	perfbench --reference --seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload to the function that sets it up, runs the
// timed window, checks the answers and returns its primary class.
var workloads = map[string]func(context.Context, *run) (*class, error){
	"stream-large": streamLarge,
	"exact-flow":   exactFlow,
	"serve-rw":     serveRW,
	"shard-fanout": shardFanout,
}

// perLayer lists every per-layer metric with its unit; a traced run
// reports all of them, 0 for a layer its workload does not reach.
var perLayer = map[string]string{
	"graph.build_ms":          "ms",
	"motif.count_ms":          "ms",
	"motif.instances":         "count",
	"motif.alloc_mib":         "MiB",
	"psicore.decompose_ms":    "ms",
	"psicore.alloc_mib":       "MiB",
	"psicore.coreapp_ms":      "ms",
	"core.plan_ms":            "ms",
	"core.components":         "count",
	"core.located_vertices":   "count",
	"iterative.ms":            "ms",
	"iterative.iters":         "count",
	"iterative.skips":         "count",
	"flow.ms":                 "ms",
	"flow.solves":             "count",
	"flow.nodes":              "count",
	"core.search_alloc_mib":   "MiB",
	"core.evaluate_ms":        "ms",
	"plan.events":             "count",
	"service.overhead_ms":     "ms",
	"service.hit_ms":          "ms",
	"service.queue_wait_ms":   "ms",
	"service.computes":        "count",
	"service.cache_hits":      "count",
	"mutate.ms":               "ms",
	"mutate.bounded_reads":    "%",
	"shard.remote":            "count",
	"shard.fallbacks":         "count",
	"shard.hedges":            "count",
	"shard.bounds":            "count",
	"shard.worker_ms":         "ms",
	"share.flow_presolve_pct": "%",
	"share.count_peel_pct":    "%",
	"client.latency_p50_ms":   "ms",
	"client.first_answer_ms":  "ms",
	"client.latency_p90_ms":   "ms",
	"client.throughput_ops":   "ops/s",
	"client.mutate_p50_ms":    "ms",
	"process.peak_rss_mib":    "MiB",
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var reference bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and mutation streams")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and reports per-layer metrics")
	flag.BoolVar(&reference, "reference", false, "print the Exact reference densities of every input for --seed and exit")
	flag.Parse()
	cfg.trace = trace == 1

	ctx := context.Background()
	if reference {
		if err := printReferences(ctx, os.Stdout, cfg.seed, false); err != nil {
			fatalf("%v", err)
		}
		return
	}
	drive, ok := workloads[cfg.workload]
	if !ok || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fatalf("usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}", strings.Join(workloadNames(), "|"))
	}
	logf("workload %s, seed %d, %gs window, trace %d; GOMAXPROCS %d, %s",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0), runtime.Version())

	r := newRun(cfg)
	primary, err := drive(ctx, r)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	out := r.report(primary)
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// report prints the run's operation accounting and figures as text and
// returns its result line.
func (r *run) report(primary *class) output {
	out := output{Correct: len(r.problems) == 0}
	for _, c := range r.classes {
		out.Attempted += c.attempted()
		out.Failed += c.failed()
		fmt.Printf("ops workload=%s class=%s attempted=%d failed=%d\n", r.cfg.workload, c.name, c.attempted(), c.failed())
		if err := c.firstErr(); err != nil {
			logf("%s: first failure: %v", c.name, err)
		}
	}
	for _, p := range r.problems {
		logf("check failed: %s", p)
	}
	r.wallFigures(primary)
	e2e := r.endToEnd()
	if lat := primary.latencies(); len(lat) > 0 {
		sl := sorted(lat)
		fmt.Printf("primary class=%s samples=%d min=%.4g p50=%.4g max=%.4g ms\n", primary.name, len(lat), sl[0], median(sl), sl[len(sl)-1])
	}
	printFigures("end-to-end", e2e)
	layers := make(map[string]metric, len(perLayer))
	for name, unit := range perLayer {
		layers[name] = metric{r.layers[name], unit}
	}
	printFigures("per-layer", layers)
	out.Metrics = e2e
	if r.cfg.trace {
		out.Metrics = layers
	}
	return out
}

func printFigures(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s = %.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
