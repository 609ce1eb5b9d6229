package measure

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

// runAtDepth runs a campaign on k pipeline slots (see newCampaignDepth).
func runAtDepth(w *sim.World, cfg Config, k int, sink Sink) error {
	c, err := newCampaignDepth(w, cfg, k)
	if err != nil {
		return err
	}
	return c.run(sink)
}

// runCollected runs a campaign at depth k into a collectSink and returns
// the materialized stream (plus the error, for exhaustion tests).
func runCollected(w *sim.World, cfg Config, k int) (*collectSink, error) {
	var sink collectSink
	err := runAtDepth(w, cfg, k, &sink)
	return &sink, err
}

// runOneRound executes one round on slot 0 and releases it to sink, as
// the executor does for each round of a depth-1 campaign.
func runOneRound(c *campaign, round int, sink Sink) (RoundInfo, error) {
	slot := &c.slots[0]
	slot.info, slot.err = c.roundExec(slot, round)
	return slot.info, c.release(slot, sink)
}

// TestRoundDepth pins the derived executor shape: two slots when the
// core budget has two cores and the campaign two rounds, one under a
// SelfHeal controller; the budget splits evenly across the slots.
func TestRoundDepth(t *testing.T) {
	heal := &maskController{}
	cases := []struct {
		conc, rounds, force int
		selfHeal            bool
		wantDepth, wantWork int
	}{
		{1, 45, 0, false, 1, 1},
		{2, 45, 0, false, 2, 1},
		{8, 45, 0, false, 2, 4},
		{7, 45, 0, false, 2, 3},
		{8, 1, 0, false, 1, 8},  // nothing to overlap
		{8, 45, 0, true, 1, 8},  // feedback edge: one round at a time
		{1, 45, 8, false, 8, 1}, // forced depth, budget floored at one worker
		{8, 3, 8, false, 3, 2},  // forced depth clamped to the rounds
		{8, 45, 8, true, 1, 8},  // forcing never overrides the feedback edge
	}
	for _, tc := range cases {
		cfg := QuickConfig(tc.rounds)
		cfg.Concurrency = tc.conc
		if tc.selfHeal {
			cfg.SelfHeal = heal
		}
		depth, workers := roundDepth(cfg, tc.force)
		if depth != tc.wantDepth || workers != tc.wantWork {
			t.Errorf("conc %d rounds %d force %d selfheal %v: depth %d workers %d, want %d and %d",
				tc.conc, tc.rounds, tc.force, tc.selfHeal, depth, workers, tc.wantDepth, tc.wantWork)
		}
	}
}

// blockCounter is a BlockSink that counts how each round arrives.
type blockCounter struct {
	emits, blocks, rows int
	rounds              []int
}

func (b *blockCounter) Emit(Observation) { b.emits++ }
func (b *blockCounter) EmitBlock(blk *ObsBlock) {
	b.blocks++
	b.rows += blk.Len()
	b.rounds = append(b.rounds, blk.Round)
}
func (b *blockCounter) RoundDone(RoundInfo) {}

// TestEveryDepthDeliversBlocks pins the one delivery path: at every
// depth a BlockSink gets exactly one EmitBlock per round, in round
// order, and no Emit calls; a plain Sink gets, row for row, the stream
// a depth-1 campaign delivers.
func TestEveryDepthDeliversBlocks(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(4)
	cfg.Concurrency = 2
	ref, err := runCollected(w, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 8} {
		var bc blockCounter
		if err := runAtDepth(w, cfg, k, &bc); err != nil {
			t.Fatal(err)
		}
		if bc.blocks != cfg.Rounds || bc.emits != 0 || bc.rows != len(ref.obs) {
			t.Fatalf("k=%d: %d blocks (%d rows) and %d Emit calls, want %d blocks (%d rows) and none",
				k, bc.blocks, bc.rows, bc.emits, cfg.Rounds, len(ref.obs))
		}
		for i, r := range bc.rounds {
			if r != i {
				t.Fatalf("k=%d: block %d carries round %d", k, i, r)
			}
		}
		got, err := runCollected(w, cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("k=%d: plain-sink stream differs from depth 1", k)
		}
	}
}

// TestPipelineMatchesSequential proves the executor contract fully
// in-memory (the golden-digest matrix proves it against history): for
// static and churning worlds alike, every pipeline depth emits the
// byte-identical observation stream and round summaries as depth 1, in
// strict round order. Run with -race this also proves the shared
// structures — feasibility memo, engine path-state cache, atlas outage
// samplers — safe under concurrent rounds.
func TestPipelineMatchesSequential(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(41))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := scenario.ByName(scenario.PresetChurn)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name string
		sc   *scenario.Scenario
	}{{"static", nil}, {"churn", churn}}
	for _, sce := range scenarios {
		cfg := QuickConfig(6)
		cfg.Concurrency = 2
		cfg.Scenario = sce.sc
		seq, err := runCollected(w, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.rounds) != cfg.Rounds {
			t.Fatalf("%s: sequential run finished %d rounds, want %d",
				sce.name, len(seq.rounds), cfg.Rounds)
		}
		for _, k := range []int{2, 3, 8} {
			piped, err := runCollected(w, cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/k%d", sce.name, k)
			for i, ri := range piped.rounds {
				if ri.Round != i {
					t.Fatalf("%s: RoundDone out of order: position %d got round %d", label, i, ri.Round)
				}
				if ri != seq.rounds[i] {
					t.Fatalf("%s: round %d info differs:\npiped %+v\n  seq %+v", label, i, ri, seq.rounds[i])
				}
			}
			observationsEqual(t, label, piped.results(cfg), seq.results(cfg))
		}
	}
}

// TestPipelineLedgerExhaustion pins the budget-abort contract: a
// campaign that exhausts its Atlas credits mid-campaign must fail at
// the identical round, with the identical error, having emitted the
// identical prefix stream, at every pipeline depth — even though at
// depth 8 the failing round's successors have already executed by the
// time the release step charges the failing round.
func TestPipelineLedgerExhaustion(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(6)
	cfg.Concurrency = 2

	// Discover per-round credit costs with the budget disabled, then set
	// a daily limit that admits round 0 but not round 1 (both land on
	// day 0 with the 12 h interval): exhaustion strikes while later
	// rounds are mid-flight in the deep pipeline.
	probe, err := runCollected(w, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(r int) int64 { return probe.rounds[r].PingsSent * atlas.PingCost }
	cfg.DailyCreditLimit = cost(0) + cost(1)/2

	seq, seqErr := runCollected(w, cfg, 1)
	if seqErr == nil {
		t.Fatal("sequential campaign did not exhaust the budget")
	}
	var be *atlas.ErrBudget
	if !errors.As(seqErr, &be) {
		t.Fatalf("sequential error is %T, want *atlas.ErrBudget: %v", seqErr, seqErr)
	}
	if len(seq.rounds) != 1 {
		t.Fatalf("sequential run emitted %d rounds before aborting, want 1", len(seq.rounds))
	}

	for _, k := range []int{2, 8} {
		piped, pipedErr := runCollected(w, cfg, k)
		if pipedErr == nil {
			t.Fatalf("k=%d: pipelined campaign did not exhaust the budget", k)
		}
		if pipedErr.Error() != seqErr.Error() {
			t.Fatalf("k=%d: abort error differs:\npiped %v\n  seq %v", k, pipedErr, seqErr)
		}
		if len(piped.rounds) != len(seq.rounds) {
			t.Fatalf("k=%d: emitted %d rounds before aborting, sequential emitted %d",
				k, len(piped.rounds), len(seq.rounds))
		}
		label := fmt.Sprintf("exhaustion-prefix/k%d", k)
		observationsEqual(t, label, piped.results(cfg), seq.results(cfg))
	}
}

// TestPipelinedSteadyStateSlotAllocs extends the sequential
// steady-state allocation pin to the per-slot arenas: once every slot
// has executed its rounds, re-running a round on any slot must stay
// within the same ~300-allocation budget the single-slot loop is held
// to — K slots cost K arenas of memory, never K times the allocation
// churn (the acceptance bound: steady-state allocs <= 300 x K).
func TestPipelinedSteadyStateSlotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	cfg := QuickConfig(2 * k)
	cfg.Concurrency = 1
	cfg.DailyCreditLimit = 0
	c, err := newCampaignDepth(w, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.slots) != k {
		t.Fatalf("campaign has %d slots, want %d", len(c.slots), k)
	}
	// Warm every slot with both of its statically assigned rounds, as
	// the executor would (round r runs on slot r % K).
	for r := 0; r < cfg.Rounds; r++ {
		if _, err := c.roundExec(&c.slots[r%k], r); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < k; s++ {
		slot := &c.slots[s]
		round := k + s // warm shape for this slot
		avg := testing.AllocsPerRun(3, func() {
			if _, err := c.roundExec(slot, round); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("slot %d steady-state round: %.0f allocs", s, avg)
		if avg > 300 {
			t.Fatalf("slot %d steady-state round allocates %.0f times, want <= 300 per slot "+
				"(per-slot arena regression?)", s, avg)
		}
	}
}

// slowSink simulates a consumer slower than round execution and audits
// back-pressure from inside the stream: at every RoundDone it records
// how many rounds have finished executing beyond those emitted, and
// samples the live heap. With K slots, execution may run at most K
// rounds past the emission frontier — a slow sink must throttle the
// workers, not inflate a reorder buffer.
type slowSink struct {
	c       *campaign
	delay   time.Duration
	emitted int
	ahead   []int64  // per round: executed - emitted at RoundDone
	heap    []uint64 // per round: live heap after GC, bytes
}

func (s *slowSink) Emit(Observation) {}

func (s *slowSink) RoundDone(RoundInfo) {
	time.Sleep(s.delay)
	s.emitted++
	s.ahead = append(s.ahead, s.c.executed.Load()-int64(s.emitted))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.heap = append(s.heap, ms.HeapAlloc)
}

// TestPipelineSinkBackpressure proves the reorder stage is bounded by
// the slot count: under a sink that sleeps through every RoundDone,
// execution never runs more than K rounds ahead of emission, and the
// per-round live heap matches a fast-sink run of the same campaign —
// slow consumption throttles the workers instead of accumulating
// buffered rounds (the per-round heap audit mirrors the
// stream-vs-batch memory methodology). The two runs use twin worlds
// built from one seed, so shared-cache warming — which legitimately
// grows the heap round over round — is identical in both; only reorder
// buffering could separate them.
func TestPipelineSinkBackpressure(t *testing.T) {
	const k = 2
	// run returns only the measurement series: holding the sink (and
	// through it the campaign and world) across runs would make the
	// second run's live-heap samples include the first run's retained
	// world, drowning the signal.
	run := func(delay time.Duration) (ahead []int64, heap []uint64) {
		t.Helper()
		w, err := sim.Build(sim.SmallWorldParams(11))
		if err != nil {
			t.Fatal(err)
		}
		cfg := QuickConfig(8)
		cfg.Concurrency = 1
		c, err := newCampaignDepth(w, cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sink := &slowSink{c: c, delay: delay}
		if err := c.run(sink); err != nil {
			t.Fatal(err)
		}
		if sink.emitted != cfg.Rounds {
			t.Fatalf("emitted %d rounds, want %d", sink.emitted, cfg.Rounds)
		}
		return sink.ahead, sink.heap
	}
	_, fastHeap := run(0)
	slowAhead, slowHeap := run(20 * time.Millisecond)
	for r, ahead := range slowAhead {
		if ahead > k {
			t.Fatalf("round %d: execution ran %d rounds past emission, bound is K=%d "+
				"(reorder buffer not bounded by slot count)", r, ahead, k)
		}
	}
	// Per-round heap audit: the slow run's live heap must never exceed
	// the fast run's campaign peak (fully warmed shared caches plus K
	// slot buffers) by more than noise slack. Per-round pairwise
	// comparison would be unfair — the slow run warms the shared
	// path-state cache up to K rounds earlier than the fast run reaches
	// the same emission point — but the peak is schedule-independent:
	// only rounds buffered beyond the K-slot bound could push past it.
	var fastPeak uint64
	for _, h := range fastHeap {
		if h > fastPeak {
			fastPeak = h
		}
	}
	const slack = 16 << 20
	for r, h := range slowHeap {
		if h > fastPeak+slack {
			t.Fatalf("round %d: slow-sink live heap %d B vs fast-sink peak %d B (+%d slack) — "+
				"buffered rounds accumulating past the K-slot bound?",
				r, h, fastPeak, slack)
		}
	}
}
