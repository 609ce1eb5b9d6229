package measure

import (
	"time"

	"shortcuts/internal/latency"
	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/sim"
)

// TwoRelayResult compares single-relay against two-relay overlay paths.
// The paper restricts itself to one-relay paths citing Han et al.
// (INFOCOM 2005) and Le et al. (CAN 2016), who find that a second relay
// rarely adds latency benefit; this experiment reproduces that check on
// the synthetic substrate.
type TwoRelayResult struct {
	Pairs int
	// OneRelaySufficient counts pairs where no two-relay combination
	// beats the best single relay by a meaningful margin (2 ms).
	OneRelaySufficient int
	// MedianExtraGainMs is the median additional gain of the best
	// two-relay path over the best single-relay path across all pairs
	// (typically near zero).
	MedianExtraGainMs float64
	// MeanExtraLegMs is the mean added inter-relay leg length of winning
	// two-relay paths; large values indicate the wins are noise.
	MeanExtraLegMs float64
}

// TwoRelayExperiment measures, for a sample of endpoint pairs, the best
// one-relay path against the best two-relay path (src -> r1 -> r2 -> dst)
// over the round's top COR relays. Legs reuse the campaign's median
// machinery: 6 pings, median of >= 3.
func TwoRelayExperiment(w *sim.World, cfg Config, round, maxPairs, maxRelays int) (TwoRelayResult, error) {
	c := &campaign{
		w:      w,
		cfg:    cfg,
		g:      rng.New(campaignSeed(cfg, w)).Split("two-relay"),
		ledger: nil, // extension experiment: outside the campaign budget
		nc:     len(w.Topo.Cities),
		prop:   cityPropDelays(w),
	}
	view := w.Engine.View(nil) // static world: the extension ignores scenarios
	start := cfg.Start.Add(time.Duration(round) * cfg.RoundInterval)

	endpoints := w.Selector.SampleEndpoints(c.g, round)
	if len(endpoints) < 2 {
		return TwoRelayResult{}, nil
	}
	set := w.Sampler.SampleRound(c.g, round, nil)
	corIdxs := set.ByType[relays.COR]
	if len(corIdxs) > maxRelays {
		corIdxs = corIdxs[:maxRelays]
	}

	// Every leg prices on the round's one slot schedule.
	var s scratch
	hourFrac := latency.SlotHourFracs(start, cfg.PingInterval, cfg.PingsPerPair, nil)
	legMedian := func(a, b latency.Endpoint) (float32, error) {
		pairs, handles := s.batch(1)
		pairs[0] = latency.EndpointPair{A: a, B: b}
		if err := view.Resolve(pairs, handles, nil); err != nil {
			return 0, err
		}
		m, _ := c.trainMedian(view, &s, &handles[0], round, hourFrac)
		return m, nil
	}

	// Endpoint-relay legs.
	type legRow = []float32
	legs := make(map[int]legRow, len(endpoints)) // endpoint idx -> per relay
	for ei, p := range endpoints {
		row := make(legRow, len(corIdxs))
		for k, ri := range corIdxs {
			m, err := legMedian(p.Endpoint(), w.Catalog.Relays[ri].Endpoint)
			if err != nil {
				return TwoRelayResult{}, err
			}
			row[k] = m
		}
		legs[ei] = row
	}
	// Relay-relay legs.
	mid := make([][]float32, len(corIdxs))
	for a := range corIdxs {
		mid[a] = make([]float32, len(corIdxs))
	}
	for a := 0; a < len(corIdxs); a++ {
		for b := a + 1; b < len(corIdxs); b++ {
			m, err := legMedian(w.Catalog.Relays[corIdxs[a]].Endpoint, w.Catalog.Relays[corIdxs[b]].Endpoint)
			if err != nil {
				return TwoRelayResult{}, err
			}
			mid[a][b], mid[b][a] = m, m
		}
	}

	var res TwoRelayResult
	var extraGains []float64
	var winLegSum float64
	wins := 0
	for i := 0; i < len(endpoints) && res.Pairs < maxPairs; i++ {
		for j := i + 1; j < len(endpoints) && res.Pairs < maxPairs; j++ {
			la, lb := legs[i], legs[j]
			best1 := float32(0)
			for k := range corIdxs {
				if la[k] == 0 || lb[k] == 0 {
					continue
				}
				if s := la[k] + lb[k]; best1 == 0 || s < best1 {
					best1 = s
				}
			}
			if best1 == 0 {
				continue
			}
			best2 := float32(0)
			bestMid := float32(0)
			for a := range corIdxs {
				if la[a] == 0 {
					continue
				}
				for b := range corIdxs {
					if a == b || lb[b] == 0 || mid[a][b] == 0 {
						continue
					}
					if s := la[a] + mid[a][b] + lb[b]; best2 == 0 || s < best2 {
						best2 = s
						bestMid = mid[a][b]
					}
				}
			}
			res.Pairs++
			extra := float64(best1 - best2) // positive when 2 relays win
			extraGains = append(extraGains, extra)
			if extra <= 2 {
				res.OneRelaySufficient++
			} else {
				wins++
				winLegSum += float64(bestMid)
			}
		}
	}
	if len(extraGains) > 0 {
		res.MedianExtraGainMs = median(extraGains)
	}
	if wins > 0 {
		res.MeanExtraLegMs = winLegSum / float64(wins)
	}
	return res, nil
}
