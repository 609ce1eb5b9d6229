package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

func smallWorld(t *testing.T) *sim.World {
	t.Helper()
	w, err := sim.Build(sim.SmallWorldParams(1))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The traced wrapper offers EmitBlock exactly when the wrapped sink does.
func TestTraceSinkKeepsEmissionPath(t *testing.T) {
	c := &roundClock{tr: newTracer("t")}
	cases := []struct {
		name  string
		sink  measure.Sink
		block bool
	}{
		{"StreamStats", measure.NewStreamStats(), true},
		{"Results", measure.NewResults(measure.Config{}, nil), false},
		{"MultiSink", measure.MultiSink(measure.NewStreamStats()), false},
	}
	for _, tc := range cases {
		_, got := traceSink(tc.sink, c).(measure.BlockSink)
		if got != tc.block {
			t.Errorf("%s: traced wrapper is a BlockSink = %v, want %v", tc.name, got, tc.block)
		}
	}
}

func streamCounts(s *measure.StreamStats) counts {
	c := counts{PairsAttempted: s.PairsAttempted(), PairsUsable: s.Pairs(),
		Pings: s.TotalPings(), Legs: s.RelayedPathsStudied()}
	for ty := 0; ty < relays.NumTypes; ty++ {
		c.Improved[ty] = exact(s.ImprovedFraction(relays.Type(ty)))
	}
	return c
}

// A traced StreamStats campaign stays on columnar delivery (one EmitBlock
// per round), gives the untraced counters, and its rounds add up.
func TestTracedStreamMatchesUntraced(t *testing.T) {
	w := smallWorld(t)
	cfg := measure.QuickConfig(3)
	plain := measure.NewStreamStats()
	if err := measure.RunStream(w, cfg, plain); err != nil {
		t.Fatal(err)
	}
	tr := newTracer("t")
	clock := newRoundClock(tr, -1)
	traced := measure.NewStreamStats()
	if err := measure.RunStream(w, cfg, traceSink(traced, clock)); err != nil {
		t.Fatal(err)
	}
	if clock.err != nil {
		t.Fatal(clock.err)
	}
	if got, want := streamCounts(traced), streamCounts(plain); got != want {
		t.Fatalf("traced counters %+v, untraced %+v", got, want)
	}
	if len(clock.rounds) != cfg.Rounds {
		t.Fatalf("clock saw %d rounds, want %d", len(clock.rounds), cfg.Rounds)
	}
	emits := 0
	for _, s := range tr.spans {
		if s.Name == "sink.emit" {
			if s.Calls != 1 {
				t.Errorf("round emitted through %d calls, want one EmitBlock", s.Calls)
			}
			emits++
		}
	}
	if emits != cfg.Rounds {
		t.Errorf("%d rounds emitted blocks, want %d", emits, cfg.Rounds)
	}
}

// Traced and untraced repetitions of a detector-watched Results campaign
// (the serve boot build, on the small world) give identical counters.
func TestTracedRepMatchesUntraced(t *testing.T) {
	spec := serveBootSpec(1)
	spec.params = func() sim.WorldParams { return sim.SmallWorldParams(1) }
	plain, err := runCampaignRep(spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("t")
	traced, err := runCampaignRep(spec, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if traced.counts != plain.counts {
		t.Fatalf("traced counters %+v, untraced %+v", traced.counts, plain.counts)
	}
	ls := traced.layers
	if len(ls.rounds) != 4 || ls.coldComputes <= 0 || ls.trees <= 0 {
		t.Fatalf("layer sample incomplete: %d rounds, %d cold computes, %d trees",
			len(ls.rounds), ls.coldComputes, ls.trees)
	}
	for i, r := range ls.rounds {
		if r.kinds[kindDetectEmit] <= 0 || r.kinds[kindSinkEmit] <= 0 {
			t.Errorf("round %d: detector or sink emission not timed: %+v", i, r.kinds)
		}
	}
	self := tr.selfTimes()
	for _, name := range []string{"sim.build", "bgp.warm", "measure.round", "sink.emit", "detect.emit"} {
		if self[name] <= 0 {
			t.Errorf("no self time recorded for %s", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add("root", -1, 0, 100, 0)
	tr.add("a", root, 10, 40, 0)
	b := tr.add("b", root, 50, 90, 0)
	tr.add("a", b, 60, 70, 0)
	got := tr.selfTimes()
	want := map[string]float64{"root": 30e-9, "a": 40e-9, "b": 30e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self(%s) = %g, want %g", k, got[k], v)
		}
	}
}

func TestAllowedWorlds(t *testing.T) {
	swaps := []swapRec{{start: 100, end: 200, target: 1}, {start: 300, end: 400, target: 0}}
	cases := []struct {
		send, done int64
		want       uint8
	}{
		{10, 50, 1},   // before any swap: boot world
		{50, 100, 1},  // returned as the first swap was sent
		{90, 150, 3},  // overlaps the first swap: either world
		{200, 300, 2}, // between swaps: the first swap's target
		{250, 350, 3}, // overlaps the second swap
		{150, 420, 3}, // spans both swaps
		{400, 450, 1}, // sent as the second swap returned: boot world again
	}
	for _, tc := range cases {
		if got := allowedWorlds(sample{send: tc.send, done: tc.done}, swaps); got != tc.want {
			t.Errorf("read [%d,%d]: allowed %b, want %b", tc.send, tc.done, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.75, 3.25}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// BENCHMARK.json declares exactly the metrics the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}

// Two generator connections against a handler timed per route: every
// request is sent, answered, matched and timed, with no data race.
func TestOpenLoopAndRouteStats(t *testing.T) {
	rs := &routeStats{}
	body := []byte(`{"ok":true}`)
	srv := httptest.NewServer(rs.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	})))
	defer srv.Close()
	urls := make([]string, 200)
	for i := range urls {
		urls[i] = "/a"
		if i%2 == 1 {
			urls[i] = "/b"
		}
	}
	refs := []map[string][]byte{{"/a": body, "/b": body}, {"/a": body}}
	ss := openLoop(time.Now(), []*http.Client{newClient(), newClient()}, srv.URL, urls, 2000, refs, nil)
	if len(ss) != len(urls) {
		t.Fatalf("%d samples, want %d", len(ss), len(urls))
	}
	for i, s := range ss {
		want := uint8(1)
		if urls[i] == "/a" {
			want = 3
		}
		if !s.ok || s.match != want || s.send < s.due || s.done < s.send {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}
	got := rs.report()
	if got["/a"].Requests != 100 || got["/b"].Requests != 100 || got["/a"].Bytes != int64(100*len(body)) {
		t.Fatalf("route stats %+v", got)
	}
}

// The closed loop sends every URL in order on one connection and marks
// each read by status and body; a non-200 read fails without ending the
// block, and an elapsed block sends nothing more.
func TestClosedLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/a":
			_, _ = w.Write([]byte(`{"a":1}`))
		case "/b":
			_, _ = w.Write([]byte(strings.Repeat("b", 10000)))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	ref := map[string][]byte{"/a": []byte(`{"a":1}`), "/b": []byte(strings.Repeat("b", 9999) + "c")}
	urls := []string{"/a", "/b", "/missing", "/a?x=1", "/a"}
	ss, err := closedLoop(addr, urls, time.Minute, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		ok    bool
		match uint8
	}{{true, 1}, {true, 0}, {false, 0}, {true, 0}, {true, 1}}
	if len(ss) != len(want) {
		t.Fatalf("%d samples, want %d", len(ss), len(want))
	}
	for i, s := range ss {
		if s.ok != want[i].ok || s.match != want[i].match || s.done < s.send {
			t.Errorf("sample %d (%s): %+v, want ok %v match %d", i, urls[i], s, want[i].ok, want[i].match)
		}
	}
	if ss, err := closedLoop(addr, urls, 0, ref); err != nil || len(ss) != 0 {
		t.Fatalf("zero-length block: %d samples, %v", len(ss), err)
	}
}
