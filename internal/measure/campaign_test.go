package measure

import (
	"sync"
	"testing"
	"time"

	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

var (
	campOnce sync.Once
	campW    *sim.World
	campRes  *Results
	campErr  error
)

func testCampaign(t *testing.T) (*sim.World, *Results) {
	t.Helper()
	campOnce.Do(func() {
		campW, campErr = sim.Build(sim.SmallWorldParams(2))
		if campErr != nil {
			return
		}
		campRes, campErr = Run(campW, QuickConfig(3))
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return campW, campRes
}

func TestRunProducesObservations(t *testing.T) {
	_, res := testCampaign(t)
	if len(res.Observations) == 0 {
		t.Fatal("no observations")
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Rounds))
	}
	if res.TotalPings == 0 {
		t.Fatal("no pings sent")
	}
}

func TestObservationInvariants(t *testing.T) {
	w, res := testCampaign(t)
	for i := range res.Observations {
		o := &res.Observations[i]
		if o.DirectMs <= 0 {
			t.Fatalf("observation %d has non-positive direct RTT", i)
		}
		if o.SrcCC == o.DstCC {
			t.Fatalf("observation %d endpoints share country %s (selection is 1/country)", i, o.SrcCC)
		}
		if o.SrcProbe == o.DstProbe {
			t.Fatalf("observation %d uses the same probe twice", i)
		}
		for ty := 0; ty < relays.NumTypes; ty++ {
			if o.BestRelay[ty] >= 0 {
				r := w.Catalog.Relays[o.BestRelay[ty]]
				if int(r.Type) != ty {
					t.Fatalf("observation %d best relay of type %d is actually %v", i, ty, r.Type)
				}
				if o.BestMs[ty] <= 0 {
					t.Fatalf("observation %d has best relay but non-positive RTT", i)
				}
			}
		}
		for _, e := range o.Improving {
			if e.RelayedMs >= o.DirectMs {
				t.Fatalf("observation %d improving entry does not improve: %v >= %v",
					i, e.RelayedMs, o.DirectMs)
			}
		}
	}
}

func TestImprovingConsistentWithBest(t *testing.T) {
	w, res := testCampaign(t)
	for i := range res.Observations {
		o := &res.Observations[i]
		// The best relayed RTT per type must match the minimum over the
		// improving entries of that type whenever an improving entry
		// exists.
		var minByType [relays.NumTypes]float32
		var has [relays.NumTypes]bool
		for _, e := range o.Improving {
			ty := w.Catalog.Relays[e.Relay].Type
			if !has[ty] || e.RelayedMs < minByType[ty] {
				minByType[ty] = e.RelayedMs
				has[ty] = true
			}
		}
		for ty := 0; ty < relays.NumTypes; ty++ {
			if has[ty] {
				if o.BestRelay[ty] < 0 {
					t.Fatalf("observation %d: improving %v entries but no best relay", i, relays.Type(ty))
				}
				if o.BestMs[ty] != minByType[ty] {
					t.Fatalf("observation %d: best %v RTT %v != min improving %v",
						i, relays.Type(ty), o.BestMs[ty], minByType[ty])
				}
			}
		}
	}
}

func TestFeasibleCountsBounded(t *testing.T) {
	_, res := testCampaign(t)
	for i := range res.Observations {
		o := &res.Observations[i]
		total := 0
		for ty := 0; ty < relays.NumTypes; ty++ {
			total += int(o.FeasibleCount[ty])
		}
		if len(o.Improving) > total {
			t.Fatalf("observation %d has more improving relays (%d) than feasible (%d)",
				i, len(o.Improving), total)
		}
	}
}

func TestResponsiveFractionBand(t *testing.T) {
	_, res := testCampaign(t)
	rf := res.ResponsiveFraction()
	if rf < 0.7 || rf > 0.95 {
		t.Fatalf("responsive fraction = %.2f, want ~0.84", rf)
	}
}

func TestDeterministicCampaign(t *testing.T) {
	w, res := testCampaign(t)
	res2, err := Run(w, QuickConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Observations) != len(res.Observations) {
		t.Fatalf("observation counts differ: %d vs %d", len(res2.Observations), len(res.Observations))
	}
	for i := range res.Observations {
		a, b := &res.Observations[i], &res2.Observations[i]
		if a.DirectMs != b.DirectMs || a.SrcProbe != b.SrcProbe || a.DstProbe != b.DstProbe {
			t.Fatalf("observation %d differs between identical runs", i)
		}
		if len(a.Improving) != len(b.Improving) {
			t.Fatalf("observation %d improving sets differ", i)
		}
	}
}

func TestConcurrencyOneMatchesParallel(t *testing.T) {
	w, res := testCampaign(t)
	cfg := QuickConfig(1)
	cfg.Concurrency = 1
	serial, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Concurrency = 8
	parallel, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Observations) != len(parallel.Observations) {
		t.Fatalf("serial %d vs parallel %d observations",
			len(serial.Observations), len(parallel.Observations))
	}
	for i := range serial.Observations {
		if serial.Observations[i].DirectMs != parallel.Observations[i].DirectMs {
			t.Fatalf("observation %d differs across concurrency levels", i)
		}
	}
	_ = res
}

func TestConfigValidation(t *testing.T) {
	w, _ := testCampaign(t)
	if _, err := Run(w, Config{Rounds: 0}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	bad := QuickConfig(1)
	bad.PingsPerPair = 2
	bad.MinValidPings = 3
	if _, err := Run(w, bad); err == nil {
		t.Fatal("PingsPerPair < MinValidPings accepted")
	}
}

func TestCreditBudgetEnforced(t *testing.T) {
	w, _ := testCampaign(t)
	cfg := QuickConfig(1)
	cfg.DailyCreditLimit = 1000 // absurdly small
	if _, err := Run(w, cfg); err == nil {
		t.Fatal("campaign ran despite a tiny credit budget")
	}
}

func TestRoundTiming(t *testing.T) {
	_, res := testCampaign(t)
	for i, ri := range res.Rounds {
		want := res.Config.Start.Add(time.Duration(i) * res.Config.RoundInterval)
		if !ri.Start.Equal(want) {
			t.Fatalf("round %d starts at %v, want %v", i, ri.Start, want)
		}
	}
}

func TestImprovementMsHelper(t *testing.T) {
	o := Observation{DirectMs: 100}
	o.BestRelay[relays.COR] = 5
	o.BestMs[relays.COR] = 80
	if got := o.ImprovementMs(relays.COR); got != 20 {
		t.Fatalf("ImprovementMs = %v, want 20", got)
	}
	o.BestRelay[relays.PLR] = -1
	if got := o.ImprovementMs(relays.PLR); got != 0 {
		t.Fatalf("ImprovementMs without relay = %v, want 0", got)
	}
}

func TestRelayedPathsStudiedCounts(t *testing.T) {
	_, res := testCampaign(t)
	if res.RelayedPathsStudied() <= 0 {
		t.Fatal("no relayed paths studied")
	}
}

func TestMedian(t *testing.T) {
	// long returns 0..n-1 in a scrambled order; its median is (n-1)/2.
	long := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i * 7) % n) // 7 is coprime to 17 and 18
		}
		return v
	}
	for _, c := range []struct {
		name string
		vals []float64
		want float64
	}{
		{"one", []float64{4}, 4},
		{"odd", []float64{9, 1, 5}, 5},
		{"even", []float64{8, 2, 6, 4}, 5},
		{"even-duplicates", []float64{3, 3, 1, 7}, 3},
		{"train-of-6", []float64{12.5, 11, 13, 11.5, 40, 12}, 12.25},
		{"len-17-sort-fallback", long(17), 8},
		{"len-18-sort-fallback", long(18), 8.5},
	} {
		if got := median(c.vals); got != c.want {
			t.Errorf("%s: median = %v, want %v", c.name, got, c.want)
		}
	}
}
