// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks the program's outputs, prints
// every metric by name and unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see NOTES.md for why each exists):
//
//	paper  the 45-round reproduction with every table and figure
//	scale  a 100k-endpoint, 4096-pair sampled campaign with the detector
//	serve  relayserve under an open-loop read mix, then under hot swaps
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by timing calls into each
// layer's public functions and reading its public counters, and the run
// also measures the untraced program to report the tracing overhead.
// Run it through run.sh, which builds it inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The metric names BENCHMARK.json declares; every workload reports each.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"run_s", "s"}, {"pairs_per_s", "1/s"},
		{"live_heap_mb", "MB"}, {"op_p50_ms", "ms"},
	}
	perLayer = []metricDef{
		{"sim.build_s", "s"}, {"bgp.warm_s", "s"}, {"bgp.trees", "count"},
		{"bgp.tree_computes_run", "count"},
		{"measure.round0_s", "s"}, {"measure.round_p50_s", "s"}, {"measure.round_p75_s", "s"},
		{"measure.pairs_attempted", "count"}, {"measure.pairs_usable", "count"},
		{"measure.pings", "count"}, {"measure.legs", "count"},
		{"latency.cold_computes", "count"}, {"latency.cold_per_leg", "ratio"},
		{"latency.cache_entries", "count"}, {"latency.cache_load_max", "ratio"},
		{"sink.emit_s", "s"}, {"sink.round_done_s", "s"},
		{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_p99_ms", "ms"},
		{"trace.overhead_pct", "%"},
	}
)

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// scorecard collects one run's metrics and check outcomes.
type scorecard struct {
	workload  string
	metrics   map[string]metricValue
	attempted int
	failed    int
}

func newScorecard(workload string) *scorecard {
	return &scorecard{workload: workload, metrics: make(map[string]metricValue)}
}

// put records a metric and prints it; n is its sample count (0 to omit).
func (r *scorecard) put(name, unit string, v float64, n int) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	if n > 0 {
		fmt.Printf("%-8s %-28s %14.6g %-6s (n=%d)\n", r.workload, name, v, unit, n)
	} else {
		fmt.Printf("%-8s %-28s %14.6g %s\n", r.workload, name, v, unit)
	}
}

// check counts one checked operation; a false ok is a failure. The
// first failures are printed, the rest only counted.
func (r *scorecard) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-host" {
		if err := hostMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve-host:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "paper | scale | serve")
		seed     = flag.Int64("seed", 0, "workload seed")
		seconds  = flag.Int("seconds", 25, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
		pin      = flag.Bool("pin", false, "print the exact counters of every pinned seed as golden.json and exit")
	)
	flag.Parse()
	if *pin {
		if err := printGolden(); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	run := runOpts{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	rep := newScorecard(*workload)
	var err error
	switch *workload {
	case "paper":
		err = campaignWorkload(rep, paperSpec, "paper", run)
	case "scale":
		err = campaignWorkload(rep, scaleSpec, "scale", run)
	case "serve":
		err = serveWorkload(rep, run)
	default:
		err = fmt.Errorf("unknown --workload %q (want paper, scale or serve)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	want := endToEnd
	if run.traced {
		want = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not produce metric %s", *workload, m.name))
		}
		out.Metrics[m.name] = v
	}
	rep.put("error_rate", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

type runOpts struct {
	seed   int64
	budget time.Duration
	traced bool
}

// pinnedSeeds is how many campaign seeds golden.json pins. The workload
// seed selects one of them, so every run is checked against counters the
// seed commit produced.
const pinnedSeeds = 8

// campaignSeedFor maps a workload seed onto a pinned campaign seed
// (1..pinnedSeeds).
func campaignSeedFor(seed int64) int64 { return 1 + ((seed%pinnedSeeds)+pinnedSeeds)%pinnedSeeds }

// traceDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "traces")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
