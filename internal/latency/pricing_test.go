package latency

import (
	"testing"
	"time"
)

// flatSchedule is the slot schedule of n pings all sent at wall time at.
func flatSchedule(at time.Time, n int) []float64 {
	hf := make([]float64, n)
	for i := range hf {
		hf[i] = hourFracOf(at)
	}
	return hf
}

// price resolves (a, b) through v — cached mode when ps is nil,
// one-shot otherwise — and prices one train into out.
func price(t testing.TB, v View, a, b Endpoint, round int, hourFrac []float64, out []PingSample, ps *PathScratch) {
	t.Helper()
	var h [1]PairHandle
	if err := v.Resolve([]EndpointPair{{A: a, B: b}}, h[:], ps); err != nil {
		t.Fatal(err)
	}
	v.PingTrain(&h[0], round, hourFrac, out)
}

// pricingRow is one row of the primitive's table: a direction of a pair
// priced under an overlay.
type pricingRow struct {
	name string
	view View
	a, b Endpoint
}

// pricingRows builds the table: (a,b), (b,a) and the lo == hi key (a,a),
// each under a nil, an all-neutral and a perturbing overlay. The
// endpoints' access delays are offset by salt, so each caller prices
// pairs no other test has cached.
func pricingRows(t *testing.T, salt time.Duration) []pricingRow {
	t.Helper()
	e, a, b, nc := overlayEndpoints(t)
	a.Access += salt
	b.Access += 2 * salt
	pert := neutralTables(nc)
	pert.factor[a.City] = 1.3
	pert.loss[b.City] = 0.05
	var rows []pricingRow
	for _, ov := range []struct {
		name string
		ov   Overlay
	}{{"nil", nil}, {"neutral", neutralTables(nc)}, {"perturbing", pert}} {
		for _, dir := range []struct {
			name string
			x, y Endpoint
		}{{"a-b", a, b}, {"b-a", b, a}, {"lo=hi", a, a}} {
			rows = append(rows, pricingRow{name: dir.name + "/" + ov.name, view: e.View(ov.ov), a: dir.x, b: dir.y})
		}
	}
	return rows
}

// TestPricingModesBitIdentical pins the resolver's two modes against
// each other on every row: one-shot samples are bit-identical to cached
// ones, one-shot resolution never admits a state, and a batch naming
// both directions of a pair prices each exactly like its own resolve.
func TestPricingModesBitIdentical(t *testing.T) {
	rows := pricingRows(t, 313*time.Microsecond)
	e := rows[0].view.e
	hf := SlotHourFracs(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 5*time.Minute, 6, nil)
	const rounds = 3
	oneShot := make([][rounds][6]PingSample, len(rows))
	var ps PathScratch
	before := e.CachedPairs()
	for i, r := range rows {
		for round := 0; round < rounds; round++ {
			price(t, r.view, r.a, r.b, round, hf, oneShot[i][round][:], &ps)
		}
	}
	// Both directions in one batch — the campaign's direct-pair shape,
	// whose shared state is computed once — match the rows priced one
	// pair per resolve. The one-shot batch runs while nothing is cached.
	twoDirections := func(ps *PathScratch) {
		t.Helper()
		a, b := rows[0].a, rows[0].b
		for i := 0; i < len(rows); i += 3 { // rows i, i+1: a-b, b-a under one overlay
			v := rows[i].view
			var h [2]PairHandle
			if err := v.Resolve([]EndpointPair{{A: a, B: b}, {A: b, B: a}}, h[:], ps); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < 2; d++ {
				var got [6]PingSample
				v.PingTrain(&h[d], 1, hf, got[:])
				if got != oneShot[i+d][1] {
					t.Fatalf("%s in a two-direction batch: %v vs %v", rows[i+d].name, got, oneShot[i+d][1])
				}
			}
		}
	}
	twoDirections(&ps)
	if got := e.CachedPairs(); got != before {
		t.Fatalf("one-shot resolution admitted %d states", got-before)
	}
	twoDirections(nil)
	for i, r := range rows {
		for round := 0; round < rounds; round++ {
			var cached [6]PingSample
			price(t, r.view, r.a, r.b, round, hf, cached[:], nil)
			if cached != oneShot[i][round] {
				t.Fatalf("%s round %d: cached %v vs one-shot %v", r.name, round, cached, oneShot[i][round])
			}
		}
	}
	if got := e.CachedPairs(); got != before+2 {
		t.Fatalf("cached resolution admitted %d states, want 2 (a-b and a-a)", got-before)
	}
}

// TestPingTrainZeroAllocs pins warm pricing — resolve plus one train —
// to zero allocations in both modes on every row. The one-shot rows
// price a pair that stays uncached, so the state is computed into the
// scratch each time. This is a regression fence: a change that
// re-introduces heap traffic (a hash object, a split generator, an
// escaping buffer) fails here rather than silently costing every
// campaign.
func TestPingTrainZeroAllocs(t *testing.T) {
	rows := pricingRows(t, 571*time.Microsecond)
	hf := SlotHourFracs(time.Date(2017, 4, 23, 18, 0, 0, 0, time.UTC), 5*time.Minute, 6, nil)
	pairs := make([]EndpointPair, 1)
	handles := make([]PairHandle, 1)
	out := make([]PingSample, 6)
	var ps PathScratch
	for _, mode := range []struct {
		name string
		ps   *PathScratch
	}{{"one-shot", &ps}, {"cached", nil}} {
		for _, r := range rows {
			pairs[0] = EndpointPair{A: r.a, B: r.b}
			round := 0
			resolveAndPrice := func() {
				if err := r.view.Resolve(pairs, handles, mode.ps); err != nil {
					t.Fatal(err)
				}
				r.view.PingTrain(&handles[0], round, hf, out)
				round++
			}
			resolveAndPrice() // warm: grows the scratch, fills router trees or the cache
			if allocs := testing.AllocsPerRun(200, resolveAndPrice); allocs != 0 {
				t.Fatalf("%s %s: %.1f allocs/op warm, want 0", mode.name, r.name, allocs)
			}
		}
	}
}

func TestPingTrainEmpty(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	price(t, e.View(nil), a, b, 0, nil, nil, nil)
	if err := e.View(nil).Resolve(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResolveChunkBoundary resolves more pairs than one chunk holds,
// with pairs repeated inside the first chunk and across the boundary,
// and checks every handle against its own single-pair resolve.
func TestResolveChunkBoundary(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	v := e.View(nil)
	hf := flatSchedule(time.Date(2017, 4, 24, 3, 0, 0, 0, time.UTC), 6)
	var pairs []EndpointPair
	for i := 0; i < resolveChunk+5; i++ {
		x := a // offset so no pair is cached before the first resolve
		x.Access += time.Duration(1+i%(resolveChunk-1)) * 7 * time.Microsecond
		pairs = append(pairs, EndpointPair{A: x, B: b})
	}
	for _, ps := range []*PathScratch{new(PathScratch), nil} {
		handles := make([]PairHandle, len(pairs))
		if err := v.Resolve(pairs, handles, ps); err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			var got, want [6]PingSample
			v.PingTrain(&handles[i], 0, hf, got[:])
			price(t, v, p.A, p.B, 0, hf, want[:], nil)
			if got != want {
				t.Fatalf("pair %d (one-shot %v): %v vs %v", i, ps != nil, got, want)
			}
		}
	}
}

// TestResolveDirectionAsymmetry pins which asymmetry factor a direction
// gets: fwdAsym iff its source is the canonical key's lo endpoint, which
// includes the lo == hi key.
func TestResolveDirectionAsymmetry(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	for _, ps := range []*PathScratch{new(PathScratch), nil} {
		var h [3]PairHandle
		if err := e.View(nil).Resolve([]EndpointPair{{A: a, B: b}, {A: b, B: a}, {A: a, B: a}}, h[:], ps); err != nil {
			t.Fatal(err)
		}
		lo := canonicalKey(a, b).lo
		for i, src := range []Endpoint{a, b, a} {
			want := h[i].st.revAsym
			if src.Key() == lo || i == 2 {
				want = h[i].st.fwdAsym
			}
			if h[i].asym != want {
				t.Fatalf("pair %d (one-shot %v): asym %v, want %v", i, ps != nil, h[i].asym, want)
			}
		}
		if h[0].st.fwdAsym == h[0].st.revAsym {
			t.Fatal("fixture pair has no asymmetry to tell the directions apart")
		}
	}
}

// TestBaseRTTWarmZeroAllocs pins the warmed load-independent query to
// zero allocations: hash + shard lookup only.
func TestBaseRTTWarmZeroAllocs(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	if _, err := e.BaseRTT(a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.BaseRTT(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BaseRTT allocated %.1f/op on a warm cache, want 0", allocs)
	}
}
