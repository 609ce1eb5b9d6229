package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"shortcuts/internal/analysis"
	"shortcuts/internal/detect"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/report"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

// campaignSpec is one campaign-shaped workload: a world, a measurement
// config, and what consumes the observation stream.
type campaignSpec struct {
	params func() sim.WorldParams
	config func(campaignSeed int64) measure.Config
	// monitor attaches a monitor-only detector as Config.SelfHeal, the
	// way the relay-planning service watches its warm campaigns.
	monitor bool
	// results materializes the stream into measure.Results; otherwise it
	// folds into measure.StreamStats.
	results bool
	// outputs renders everything `shortcuts -out` prints and writes.
	outputs bool
}

const scaleRounds = 2

var (
	// paperSpec is the paper's campaign: default world, 45 rounds,
	// exhaustive pairs, every table and figure.
	paperSpec = campaignSpec{
		params: func() sim.WorldParams { return sim.DefaultWorldParams(1) },
		config: func(seed int64) measure.Config {
			c := measure.QuickConfig(45)
			c.CampaignSeed = seed
			return c
		},
		results: true,
		outputs: true,
	}
	// scaleSpec is the scale tier of `shortcuts -scale 100000
	// -pairbudget 4096`, streamed, with the detector attached.
	scaleSpec = campaignSpec{
		params: func() sim.WorldParams { return sim.ScaleWorldParams(1, 100_000) },
		config: func(seed int64) measure.Config {
			c := measure.QuickConfig(scaleRounds)
			c.CampaignSeed = seed
			c.PairBudget = 4096
			c.EndpointsPerCountry = 1 << 20
			c.FastAvailability = true
			c.DailyCreditLimit = 0
			return c
		},
		monitor: true,
	}
)

// serveBootSpec replays what the relay-planning service builds at boot
// (serve.Options defaults: default world, 4-round calm warm campaign,
// monitor-only detector, Results sink) so its layers can be traced from
// outside the server process.
func serveBootSpec(seed int64) campaignSpec {
	return campaignSpec{
		params: func() sim.WorldParams { return sim.DefaultWorldParams(seed) },
		config: func(int64) measure.Config {
			c := measure.QuickConfig(4)
			c.CampaignSeed = seed
			c.Scenario = scenario.Calm()
			return c
		},
		monitor: true,
		results: true,
	}
}

// counts are the exact work counters of one campaign; equal inputs must
// reproduce them bit for bit.
type counts struct {
	PairsAttempted int       `json:"pairs_attempted"`
	PairsUsable    int       `json:"pairs_usable"`
	Pings          int64     `json:"pings"`
	Legs           int64     `json:"legs"`
	Improved       [4]string `json:"improved"` // per relays.Type, shortest exact decimal
	Corridors      int       `json:"corridors,omitempty"`
}

// repOutcome is one repetition: fresh world, one campaign, its outputs.
type repOutcome struct {
	setup, run time.Duration
	rounds     []float64 // per-round wall time, seconds
	counts     counts
	digest     string // SHA-256 of the rendered outputs
	heapMB     float64
	gc         goDelta
	layers     *layerSample // traced repetitions only
}

// layerSample holds the per-layer numbers of one traced repetition.
type layerSample struct {
	buildS, warmS          float64
	trees, treeComputesRun int64
	rounds                 []roundTrace
	coldComputes           int64
	cacheEntries           int
	cacheLoadMax           float64
	coldByRound            []int64
}

// roundTimer is the progress hook `shortcuts` attaches beside its sink;
// here it timestamps each round instead of printing it.
type roundTimer struct {
	last time.Time
	out  *[]float64
}

func (r *roundTimer) Emit(measure.Observation) {}

func (r *roundTimer) RoundDone(measure.RoundInfo) {
	now := time.Now()
	*r.out = append(*r.out, now.Sub(r.last).Seconds())
	r.last = now
}

// runCampaignRep runs one repetition. tr is nil for untraced runs.
func runCampaignRep(spec campaignSpec, campaignSeed int64, tr *tracer) (repOutcome, error) {
	var out repOutcome
	runtime.GC() // the previous repetition's world must not be collected on this one's clock
	g0 := readGoStats()
	root := tr.begin("rep", -1)

	setup := tr.begin("setup", root)
	w, buildD, warmD, err := buildWorld(spec, tr, setup)
	if err != nil {
		return out, err
	}
	out.setup = buildD + warmD
	tr.end(setup)

	var ls *layerSample
	if tr != nil {
		ls = &layerSample{buildS: buildD.Seconds(), warmS: warmD.Seconds(), trees: int64(w.Router.CachedTrees())}
	}
	computes0 := w.Router.TreeComputations()
	cached0 := w.Engine.CachedPairs()

	run := tr.begin("run", root)
	t1 := time.Now()
	cfg := spec.config(campaignSeed)
	var det *detect.Detector
	if spec.monitor {
		det = detect.New(w, detect.Options{})
		cfg.SelfHeal = det
	}
	var (
		res   *measure.Results
		stats *measure.StreamStats
		sink  measure.Sink
	)
	if spec.results {
		res = measure.NewResults(cfg, w)
		sink = res
	} else {
		stats = measure.NewStreamStats()
		sink = stats
	}
	sink = measure.MultiSink(sink, &roundTimer{last: t1, out: &out.rounds})
	mr := tr.begin("measure.run", run)
	var clock *roundClock
	if tr != nil {
		clock = newRoundClock(tr, mr)
		lastCached := cached0
		clock.afterRound = func(measure.RoundInfo) {
			n := w.Engine.CachedPairs()
			ls.coldByRound = append(ls.coldByRound, int64(n-lastCached))
			lastCached = n
		}
		sink = traceSink(sink, clock)
		if det != nil {
			cfg.SelfHeal = &tracedController{inner: det, clock: clock}
		}
	}
	err = measure.RunStream(w, cfg, sink)
	tr.end(mr)
	if err != nil {
		return out, err
	}
	if clock != nil && clock.err != nil {
		return out, fmt.Errorf("trace: %w", clock.err)
	}
	if spec.outputs {
		if out.digest, err = renderOutputs(tr, run, w, res); err != nil {
			return out, err
		}
	}
	out.run = time.Since(t1)
	tr.end(run)
	tr.end(root)
	out.gc = g0.to(readGoStats())

	if res != nil {
		out.counts = counts{PairsAttempted: res.PairsAttempted, PairsUsable: len(res.Observations),
			Pings: res.TotalPings, Legs: res.RelayedPathsStudied()}
		for t := 0; t < relays.NumTypes; t++ {
			out.counts.Improved[t] = exact(analysis.ImprovedFraction(res, relays.Type(t)))
		}
	} else {
		out.counts = counts{PairsAttempted: stats.PairsAttempted(), PairsUsable: stats.Pairs(),
			Pings: stats.TotalPings(), Legs: stats.RelayedPathsStudied()}
		for t := 0; t < relays.NumTypes; t++ {
			out.counts.Improved[t] = exact(stats.ImprovedFraction(relays.Type(t)))
		}
	}
	if det != nil {
		out.counts.Corridors = det.Corridors()
	}
	if ls != nil {
		ls.treeComputesRun = w.Router.TreeComputations() - computes0
		ls.rounds = clock.rounds
		ls.cacheEntries = w.Engine.CachedPairs()
		ls.coldComputes = int64(ls.cacheEntries - cached0)
		for _, s := range w.Engine.CacheStats() {
			ls.cacheLoadMax = max(ls.cacheLoadMax, s.LoadFactor())
		}
		out.layers = ls
	}
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(w)
	runtime.KeepAlive(res)
	runtime.KeepAlive(stats)
	runtime.KeepAlive(det)
	return out, nil
}

// exact renders a float with the fewest digits that read back to the
// same value, so pinned fractions compare bit for bit.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderOutputs produces everything `shortcuts -out DIR` prints after the
// campaign and every figure CSV it writes, in the same order, into a
// hash instead of the terminal and files.
func renderOutputs(tr *tracer, parent int, w *sim.World, res *measure.Results) (string, error) {
	h := sha256.New()
	an := tr.begin("analysis.total", parent)
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"report.summary", func(o io.Writer) error { return report.Summary(o, res) }},
		{"report.table1", func(o io.Writer) error { return report.Table1(o, res, 20) }},
		{"analysis.future_work", func(o io.Writer) error { return futureWork(o, res) }},
		{"report.fig1", func(o io.Writer) error { return report.Fig1(o, w.Apnic) }},
		{"report.fig2", func(o io.Writer) error { return report.Fig2(o, res) }},
		{"report.fig3", func(o io.Writer) error { return report.Fig3(o, res, 100) }},
		{"report.fig4", func(o io.Writer) error { return report.Fig4(o, res, 10) }},
	}
	for _, s := range steps {
		id := tr.begin(s.name, an)
		err := s.fn(h)
		tr.end(id)
		if err != nil {
			return "", fmt.Errorf("%s: %w", s.name, err)
		}
	}
	tr.end(an)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// futureWork prints the Section-5 analyses as `shortcuts` does. It
// writes to a hash, whose writes never fail.
func futureWork(o io.Writer, res *measure.Results) error {
	for _, f := range analysis.FacilityFeatureAttribution(res) {
		fmt.Fprintf(o, "facility feature %-20s rank correlation %+.2f\n", f.Name, f.Correlation)
	}
	fmt.Fprintf(o, "RAR_other improving relays by host type: %v\n", analysis.RAROtherBreakdown(res))
	for _, b := range analysis.LandingPointProximity(res, []float64{100, 500, 2000}) {
		label := fmt.Sprintf("<= %.0f km", b.MaxDistanceKm)
		if b.MaxDistanceKm < 0 {
			label = "farther"
		}
		fmt.Fprintf(o, "landing-point distance %-10s: %3d relays, %d improvement events\n",
			label, b.Relays, b.Improvements)
	}
	return nil
}

// buildWorld builds the spec's world and warms its routes, the set-up
// `shortcuts` performs before a campaign (sim.Build with its default
// options does the same two steps).
func buildWorld(spec campaignSpec, tr *tracer, parent int) (w *sim.World, build, warm time.Duration, err error) {
	b := tr.begin("sim.build", parent)
	t0 := time.Now()
	w, err = sim.BuildWith(spec.params(), sim.BuildOptions{WarmRoutes: false})
	build = time.Since(t0)
	tr.end(b)
	if err != nil {
		return nil, 0, 0, err
	}
	wr := tr.begin("bgp.warm", parent)
	t1 := time.Now()
	err = w.WarmRoutes(0)
	warm = time.Since(t1)
	tr.end(wr)
	return w, build, warm, err
}

// campaignWorkload runs paper or scale: five extra set-ups, then fresh
// world + campaign repetitions until the time budget is spent. A traced
// run alternates untraced and traced repetitions, so the overhead of
// tracing is measured on the same machine state.
func campaignWorkload(rep *scorecard, spec campaignSpec, name string, run runOpts) error {
	cs := campaignSeedFor(run.seed)
	want, pinned := goldenCampaign(name, cs)
	fmt.Printf("%-8s workload seed %d -> campaign seed %d\n", name, run.seed, cs)
	start := time.Now()
	var setups []float64
	for i := 0; i < 5; i++ {
		runtime.GC()
		_, b, wm, err := buildWorld(spec, nil, -1)
		if err != nil {
			return err
		}
		setups = append(setups, (b + wm).Seconds())
	}
	var tr *tracer
	minReps := 3
	if run.traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", name, run.seed, time.Now().UnixNano()))
		minReps = 4
	}
	var plain, traced []repOutcome
	digest := ""
	for i := 0; ; i++ {
		var t *tracer
		if run.traced && i%2 == 1 {
			t = tr
		}
		r0 := time.Now()
		o, err := runCampaignRep(spec, cs, t)
		if err != nil {
			return fmt.Errorf("%s repetition %d: %w", name, i, err)
		}
		last := time.Since(r0)
		fmt.Printf("%-8s repetition %d (traced %v): setup %.4f s, run %.4f s, %d pairs\n",
			name, i, t != nil, o.setup.Seconds(), o.run.Seconds(), o.counts.PairsUsable)
		rep.check(pinned && o.counts == want, "%s campaign seed %d repetition %d: counters %+v, pinned %+v",
			name, cs, i, o.counts, want)
		if spec.outputs {
			if digest == "" {
				digest = o.digest
			}
			rep.check(o.digest == digest, "%s repetition %d: outputs differ from repetition 0", name, i)
		}
		setups = append(setups, o.setup.Seconds())
		if t != nil {
			traced = append(traced, o)
		} else {
			plain = append(plain, o)
		}
		if i+1 >= minReps && time.Since(start)+last > run.budget {
			break
		}
	}

	var runs, pps, heap, rounds, tails []float64
	var gcs []goDelta
	for _, o := range plain {
		tails = append(tails, quantile(o.rounds, 0.99))
		runs = append(runs, o.run.Seconds())
		pps = append(pps, float64(o.counts.PairsUsable)/o.run.Seconds())
		heap = append(heap, o.heapMB)
		rounds = append(rounds, o.rounds...)
		gcs = append(gcs, o.gc)
	}
	rep.put("setup_s", "s", median(setups), len(setups))
	rep.put("run_s", "s", median(runs), len(runs))
	rep.put("pairs_per_s", "1/s", median(pps), len(pps))
	rep.put("live_heap_mb", "MB", median(heap), len(heap))
	rep.put("op_p50_ms", "ms", 1e3*quantile(rounds, 0.5), len(rounds))
	// The tail is taken per repetition and the median of those reported,
	// so one stall of the shared host does not decide a run's tail.
	rep.put("op_p99_ms", "ms", 1e3*median(tails), len(tails))
	if !run.traced {
		return nil
	}

	for _, o := range traced {
		rep.check(o.counts == plain[0].counts, "%s: traced counters %+v differ from untraced %+v",
			name, o.counts, plain[0].counts)
	}
	layerMetrics(rep, name, spec, traced, tr)
	var tRuns []float64
	for _, o := range traced {
		tRuns = append(tRuns, o.run.Seconds())
	}
	g := mergeGo(gcs)
	rep.put("go.alloc_mb", "MB", g.AllocMB, len(gcs))
	rep.put("go.gc_cycles", "count", g.GCCycles, len(gcs))
	rep.put("go.gc_pause_p99_ms", "ms", g.PauseP99Ms, len(gcs))
	rep.put("trace.overhead_pct", "%", 100*(median(tRuns)/median(runs)-1), len(tRuns)+len(runs))
	path, err := tr.write(traceDir, tr.run+".json")
	if err != nil {
		return err
	}
	fmt.Printf("%-8s trace written to %s\n", name, path)
	return nil
}

// layerMetrics reports the per-layer numbers of traced repetitions.
func layerMetrics(rep *scorecard, name string, spec campaignSpec, traced []repOutcome, tr *tracer) {
	var build, warm, r0s, rSelf, emit, done, detEmit, detDone []float64
	first := traced[0].layers
	for _, o := range traced {
		ls := o.layers
		build = append(build, ls.buildS)
		warm = append(warm, ls.warmS)
		var ks [numKinds]int64
		for i, r := range ls.rounds {
			if i == 0 {
				r0s = append(r0s, float64(r.self)/1e9)
			} else {
				rSelf = append(rSelf, float64(r.self)/1e9)
			}
			for k := range ks {
				ks[k] += r.kinds[k]
			}
		}
		emit = append(emit, float64(ks[kindSinkEmit])/1e9)
		done = append(done, float64(ks[kindSinkRoundDone])/1e9)
		detEmit = append(detEmit, float64(ks[kindDetectEmit])/1e9)
		detDone = append(detDone, float64(ks[kindDetectRoundDone])/1e9)
		rep.check(ls.coldComputes == first.coldComputes && ls.trees == first.trees &&
			ls.treeComputesRun == first.treeComputesRun,
			"%s: traced repetitions disagree on exact layer counters", name)
	}
	c := traced[0].counts
	n := len(traced)
	rep.put("sim.build_s", "s", median(build), n)
	rep.put("bgp.warm_s", "s", median(warm), n)
	rep.put("bgp.trees", "count", float64(first.trees), 0)
	rep.put("bgp.tree_computes_run", "count", float64(first.treeComputesRun), 0)
	rep.put("measure.round0_s", "s", median(r0s), len(r0s))
	rep.put("measure.round_p50_s", "s", quantile(rSelf, 0.5), len(rSelf))
	rep.put("measure.round_p75_s", "s", quantile(rSelf, 0.75), len(rSelf))
	rep.put("measure.pairs_attempted", "count", float64(c.PairsAttempted), 0)
	rep.put("measure.pairs_usable", "count", float64(c.PairsUsable), 0)
	rep.put("measure.pings", "count", float64(c.Pings), 0)
	rep.put("measure.legs", "count", float64(c.Legs), 0)
	rep.put("latency.cold_computes", "count", float64(first.coldComputes), 0)
	rep.put("latency.cold_per_leg", "ratio", float64(first.coldComputes)/float64(max(c.Legs, 1)), 0)
	rep.put("latency.cold_computes_round0", "count", float64(first.coldByRound[0]), 0)
	rep.put("latency.cold_computes_last_round", "count", float64(first.coldByRound[len(first.coldByRound)-1]), 0)
	rep.put("latency.cache_entries", "count", float64(first.cacheEntries), 0)
	rep.put("latency.cache_load_max", "ratio", first.cacheLoadMax, 0)
	rep.put("sink.emit_s", "s", median(emit), n)
	rep.put("sink.round_done_s", "s", median(done), n)
	if spec.monitor {
		rep.put("detect.emit_s", "s", median(detEmit), n)
		rep.put("detect.round_done_s", "s", median(detDone), n)
		rep.put("detect.corridors", "count", float64(traced[0].counts.Corridors), 0)
	}
	if spec.outputs {
		for _, s := range []string{"analysis.total", "report.summary", "report.table1", "report.fig1", "report.fig2",
			"report.fig3", "report.fig4", "analysis.future_work"} {
			rep.put(s+"_s", "s", median(tr.durations(s)), n)
		}
	}
}
