// Package latency prices round-trip times over the synthetic Internet.
//
// An RTT between two endpoints decomposes as:
//
//	RTT = forward one-way + reverse one-way
//	one-way = propagation(PoP polyline · directness) +
//	          perASHop · AS boundaries + perCityHop · segments +
//	          access delay of both endpoints
//
// scaled by a per-path static congestion multiplier (log-normal with a
// pathological tail) and a per-path diurnal factor, with per-ping
// multiplicative jitter, occasional heavy spikes and loss on top.
//
// All stochastic draws derive from (seed, path identity) or (seed, path
// identity, round, slot), never from call order, so concurrent campaigns
// are bit-for-bit reproducible.
//
// Pricing is two calls: View.Resolve turns endpoint pairs into
// PairHandles (path state, draw identity, direction factor, overlay
// effect), and View.PingTrain prices a train off one handle. Both are
// allocation-free once warm: per-ping draws come from value-type
// rng.Streams (a Derive is a hash, not a generator allocation), pair
// identities are hashed with an inlined FNV-1a over fixed-size buffers,
// and the pathState carries the precomputed congestion-scaled static
// RTT and per-direction asymmetry factors.
package latency

import (
	"math"
	"time"

	"shortcuts/internal/bgp"
	"shortcuts/internal/geo"
	"shortcuts/internal/rng"
)

// Engine computes RTTs. Safe for concurrent use.
//
// The per-pair path-state cache is split into power-of-two shards keyed
// by the pair hash, so a worker pool hammering the cache contends on
// 1/N-th of the lock traffic instead of one global RWMutex. The shard
// count is a pure performance knob: results are bit-for-bit identical
// for any value (all stochastic draws derive from path identity, never
// from cache layout).
type Engine struct {
	router *bgp.Router
	p      Params

	// base is the value-type stream every per-path, per-endpoint and
	// per-ping draw derives from. It is never advanced, only Derived, so
	// any number of goroutines share it without synchronisation.
	base rng.Stream

	shards []cacheShard
	mask   uint64

	// Frozen Derive prefixes of the three per-identity draw families
	// (rng.Prefix): the hot paths derive millions of streams per round
	// under these fixed labels, so the (state, label) fold is paid once
	// here instead of per derivation. pingPre.At(h) == base.Derive("ping", h).
	pingPre     rng.Prefix
	pathPre     rng.Prefix
	endpointPre rng.Prefix
}

// pairKey is the canonical (unordered) identity of an endpoint pair.
type pairKey struct {
	lo, hi EndpointKey
}

func canonicalKey(a, b Endpoint) pairKey {
	ka, kb := a.Key(), b.Key()
	if less(kb, ka) {
		ka, kb = kb, ka
	}
	return pairKey{lo: ka, hi: kb}
}

func less(a, b EndpointKey) bool {
	if a.AS != b.AS {
		return a.AS < b.AS
	}
	if a.City != b.City {
		return a.City < b.City
	}
	return a.Access < b.Access
}

// pathState is the cached, deterministic state of one endpoint pair. It
// holds scalars only: campaigns cache hundreds of thousands of pairs, so
// the PoP polylines are recomputed on demand (the router memoises its
// routing trees, which makes re-expansion cheap). Everything a ping
// multiplies by is precomputed here, once per pair instead of once per
// slot.
type pathState struct {
	static     float64 // congestion-scaled static RTT, in float ns
	fwdAsym    float64 // multiplier in the canonical lo->hi direction
	revAsym    float64 // multiplier in the hi->lo direction
	diurnalAmp float64
	midLon     float64 // longitude of the path midpoint, for local time
}

// DefaultCacheShards is the path-state shard count used when
// Params.CacheShards is zero.
const DefaultCacheShards = 64

// New creates an engine over the given router with the given parameters;
// root drives all stochastic draws.
func New(router *bgp.Router, p Params, root *rng.Rand) *Engine {
	n := p.CacheShards
	if n <= 0 {
		n = DefaultCacheShards
	}
	n = ceilPow2(n)
	// Shard tables start empty and allocate their first slab on first
	// insert, so a high shard count costs nothing until pairs are cached.
	base := root.Stream("latency")
	return &Engine{
		router:      router,
		p:           p,
		base:        base,
		shards:      make([]cacheShard, n),
		mask:        uint64(n - 1),
		pingPre:     base.Prefix("ping"),
		pathPre:     base.Prefix("path"),
		endpointPre: base.Prefix("endpoint"),
	}
}

// shardOf maps a normalized pair hash to its cache shard. The shard
// index must come from hash bits the shard's pairTable does not probe
// by: the table's slot index is h & (cap-1) — the LOW bits — so taking
// the shard from the low bits too would leave every hash in a shard
// congruent mod the shard count. Only one slot in shardCount is then a
// home slot, entries collapse onto long linear runs, and a warm get
// scans dozens of slots instead of one or two. Bits 32.. are free of
// the slot index for any table under 2^32 entries per shard.
func (e *Engine) shardOf(h uint64) uint64 { return (h >> 32) & e.mask }

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Params returns the engine's calibration constants.
func (e *Engine) Params() Params { return e.p }

// NumShards reports the path-state cache shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// stateByHash returns (computing and admitting if needed) the cached
// path state of key, whose cheap table hash (tableHash, not the pair's
// FNV draw identity) is h. The fast path is a single lock-free shard
// lookup; only a miss takes the shard mutex, and then solely to admit
// the freshly computed state.
func (e *Engine) stateByHash(h uint64, key pairKey) (*pathState, error) {
	s := &e.shards[e.shardOf(h)]
	if st := s.lookup(h, key); st != nil {
		return st, nil
	}
	computed, err := e.computeStateInto(key, new(PathScratch))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	st := s.lookup(h, key)
	if st == nil {
		st = s.insertLocked(h, key, computed)
	} // else a racing worker won; keep its slot
	s.mu.Unlock()
	return st, nil
}

// computeStateInto computes the path state of key, expanding the pair's
// paths into the caller's scratch buffers, so repeated fresh-pair
// pricing (one-shot resolution) reuses two PopPaths instead of
// allocating two per pair. The produced state is a pure function of the
// pair identity.
func (e *Engine) computeStateInto(key pairKey, ps *PathScratch) (pathState, error) {
	lo, hi := key.lo, key.hi
	if err := e.router.ExpandInto(&ps.fwd, lo.AS, lo.City, hi.AS, hi.City); err != nil {
		return pathState{}, err
	}
	if err := e.router.ExpandInto(&ps.rev, hi.AS, hi.City, lo.AS, lo.City); err != nil {
		return pathState{}, err
	}
	fwd, rev := &ps.fwd, &ps.rev

	oneway := func(p *bgp.PopPath) time.Duration {
		prop := geo.PropDelay(p.DistanceKm * e.p.RouteDirectness)
		hops := time.Duration(p.ASHops())*e.p.PerASHop +
			time.Duration(p.CityHops())*e.p.PerCityHop
		return prop + hops
	}
	wide := oneway(fwd) + oneway(rev)

	// Access delay is scaled by a per-endpoint line-quality factor; the
	// wide-area component by a per-path congestion factor. Both derive
	// from network identity — the (AS, city) attachment pair — never
	// from call order, so two hosts behind the same attachments share
	// traits and concurrent campaigns reproduce exactly.
	access := 2 * (scaleDuration(lo.Access, e.accessFactor(lo)) +
		scaleDuration(hi.Access, e.accessFactor(hi)))

	g := e.pathPre.At(hashNetPath(key))
	congestion := e.p.CongestionMedian * g.LogNormal(0, e.p.CoreCongestionSigma)
	if g.Bool(e.p.BadPathProb) {
		congestion *= g.Uniform(e.p.BadPathMin, e.p.BadPathMax)
	}
	topo := e.router.Topology()
	mid := geo.Midpoint(topo.CityLoc(lo.City), topo.CityLoc(hi.City))

	asym := g.Normal(0, e.p.AsymmetrySigma)
	return pathState{
		static:     float64(wide)*congestion + float64(access),
		fwdAsym:    1 + asym,
		revAsym:    1 - asym,
		diurnalAmp: g.Uniform(0, e.p.DiurnalAmpMax),
		midLon:     mid.Lon,
	}, nil
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// accessFactor is the static line-quality multiplier of one endpoint's
// access delay. It is a pure function of the endpoint's full identity, so
// a congested DSL line is consistently congested across every path it
// terminates or relays.
func (e *Engine) accessFactor(k EndpointKey) float64 {
	g := e.endpointPre.At(hashEndpointKey(rng.FNVOffset64, k, true))
	return g.LogNormal(0, e.p.AccessCongestionSigma)
}

func hashPair(key pairKey) uint64 {
	h := hashEndpointKey(rng.FNVOffset64, key.lo, true)
	return hashEndpointKey(h, key.hi, true)
}

// hashNetPath hashes only the (AS, city) attachment points, ignoring
// access delay, so path traits are shared by co-attached hosts.
func hashNetPath(key pairKey) uint64 {
	h := hashEndpointKey(rng.FNVOffset64, key.lo, false)
	return hashEndpointKey(h, key.hi, false)
}

// hashEndpointKey folds an endpoint identity into a running FNV-1a hash
// (rng's inlined zero-alloc fold): 8 little-endian bytes of AS, 4 of
// city, and (withAccess) 8 of the access delay.
func hashEndpointKey(h uint64, k EndpointKey, withAccess bool) uint64 {
	h = rng.FNVUint64(h, uint64(k.AS))
	h = rng.FNVUint32(h, uint32(k.City))
	if withAccess {
		h = rng.FNVUint64(h, uint64(k.Access))
	}
	return h
}

// BaseRTT returns the load-independent RTT between two endpoints: the
// wide-area component scaled by the path's static congestion multiplier
// plus the line-scaled access delays. This is what the medians of
// repeated pings converge to at off-peak hours.
func (e *Engine) BaseRTT(a, b Endpoint) (time.Duration, error) {
	key := canonicalKey(a, b)
	st, err := e.stateByHash(tableHash(key), key)
	if err != nil {
		return 0, err
	}
	return time.Duration(st.static), nil
}

// hourFracOf is the UTC hour-of-day fraction of t — the pair-invariant
// part of the diurnal phase. Train loops price every pair of a round at
// the same slot times, so callers hoist this decomposition per slot
// (SlotHourFracs) instead of re-deriving it per ping.
func hourFracOf(t time.Time) float64 {
	u := t.UTC()
	return float64(u.Hour()) + float64(u.Minute())/60
}

// diurnalFactorHour returns the load factor at UTC hour fraction
// hourFrac for a path whose midpoint is at longitude midLon: a sinusoid
// peaking at 21:00 local.
func diurnalFactorHour(hourFrac, amp, midLon float64) float64 {
	if amp == 0 {
		return 1
	}
	localHour := hourFrac + midLon/15
	phase := (localHour - 21) / 24 * 2 * math.Pi
	return 1 + amp*(0.5+0.5*math.Cos(phase))
}

// SlotHourFracs appends the hour fraction (hourFracOf) of each of n ping
// slots — t0, t0+interval, ... — to buf and returns it. Campaigns price
// every train of a round on one slot schedule; precomputing the
// fractions once per round removes the per-ping wall-time decomposition
// from PingTrain.
func SlotHourFracs(t0 time.Time, interval time.Duration, n int, buf []float64) []float64 {
	for slot := 0; slot < n; slot++ {
		buf = append(buf, hourFracOf(t0.Add(time.Duration(slot)*interval)))
	}
	return buf
}

// pingSlot prices one ping slot against resolved path state: the core
// of PingTrain. asym is the direction factor (fwdAsym or revAsym)
// resolved once per handle; eff is the scenario overlay effect for the
// pair (NeutralEffect when no scenario is active). A neutral effect is
// draw-for-draw and bit-for-bit identical to the pre-overlay pricing:
// Down skips draws only when set, ExtraLoss consumes a draw only when
// positive, and multiplying by an RTTFactor of exactly 1.0 is exact in
// IEEE 754.
func (e *Engine) pingSlot(st *pathState, hp uint64, asym float64, round, slot int, hourFrac float64, eff Effect) (time.Duration, bool) {
	if eff.Down {
		return 0, false
	}
	h := hp ^ uint64(round)<<32 ^ uint64(slot)<<16
	g := e.pingPre.At(h)

	if g.Bool(e.p.LossProb) {
		return 0, false
	}
	if eff.ExtraLoss > 0 && g.Bool(eff.ExtraLoss) {
		return 0, false
	}
	rtt := st.static
	rtt *= diurnalFactorHour(hourFrac, st.diurnalAmp, st.midLon)
	rtt *= asym
	rtt *= g.LogNormal(0, e.p.JitterSigma)
	if g.Bool(e.p.SpikeProb) {
		spike := time.Duration(g.Pareto(float64(e.p.SpikeMin), e.p.SpikeAlpha))
		if spike > e.p.SpikeCap {
			spike = e.p.SpikeCap
		}
		rtt += float64(spike)
	}
	return time.Duration(rtt * eff.RTTFactor), true
}

// Trace returns the forward PoP-level path from a to b (the city polyline
// traffic follows), for traceroute-style analyses. Traces are recomputed
// on demand rather than cached; the router's memoised trees keep this
// cheap.
func (e *Engine) Trace(a, b Endpoint) (*bgp.PopPath, error) {
	return e.router.Expand(a.AS, a.City, b.AS, b.City)
}

// CachedPairs reports how many endpoint pairs have cached path state,
// summed across shards. CacheStats (cache.go) exposes the per-shard
// breakdown, including each open-addressed table's load factor.
func (e *Engine) CachedPairs() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if t := s.tab.Load(); t != nil {
			n += t.n
		}
		s.mu.Unlock()
	}
	return n
}
