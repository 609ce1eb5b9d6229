package latency

import "shortcuts/internal/bgp"

// PathScratch holds the reusable path-expansion buffers of one-shot
// pricing: two PopPaths whose ASPath/Cities slices are recycled across
// pairs. One lives in each round worker; the zero value is ready to use.
type PathScratch struct {
	fwd, rev bgp.PopPath
}

// resolvePairOneShot is resolvePair without cache admission: a cached
// pair is copied out (relay legs recur across rounds and stay cached),
// a fresh pair is priced into *st via the caller's scratch and never
// inserted. Sampled rounds draw a new endpoint pair set every round, so
// admitting their states would churn the cache without ever warming it —
// pricing on the stack is both faster and allocation-free. The produced
// state is a pure function of pair identity, so skipping admission
// cannot change a single priced value.
func (e *Engine) resolvePairOneShot(a, b Endpoint, ps *PathScratch, st *pathState) (hp uint64, asym float64, err error) {
	key := canonicalKey(a, b)
	hp = hashPair(key)
	h := tableHash(key)
	if cached := e.shards[e.shardOf(h)].lookup(h, key); cached != nil {
		*st = *cached
	} else {
		*st, err = e.computeStateInto(key, ps)
		if err != nil {
			return 0, 0, err
		}
	}
	asym = st.fwdAsym
	if a.Key() != key.lo {
		asym = st.revAsym
	}
	return hp, asym, nil
}

// PingTrainOneShotSched prices a train exactly like PingTrainSched but
// resolves the pair one-shot (see resolvePairOneShot): bit-identical
// samples, zero heap traffic, no cache admission, no per-ping wall-time
// decomposition. ps must not be shared between concurrent callers. This
// is the sampled direct-pair fast path of scale-tier rounds.
func (v View) PingTrainOneShotSched(a, b Endpoint, round int, hourFrac []float64, out []PingSample, ps *PathScratch) error {
	if len(out) == 0 {
		return nil
	}
	var st pathState
	hp, asym, err := v.e.resolvePairOneShot(a, b, ps, &st)
	if err != nil {
		return err
	}
	eff := NeutralEffect()
	if v.ov != nil {
		eff = v.ov.PairEffect(a.City, b.City)
	}
	for slot := range out {
		rtt, ok := v.e.pingSlot(&st, hp, asym, round, slot, hourFrac[slot], eff)
		out[slot] = PingSample{RTT: rtt, OK: ok}
	}
	return nil
}
