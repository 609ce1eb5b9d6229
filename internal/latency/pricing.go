package latency

import (
	"sync/atomic"
	"time"

	"shortcuts/internal/bgp"
)

// EndpointPair is one (source, destination) pair handed to Resolve.
type EndpointPair struct {
	A, B Endpoint
}

// PathScratch holds the reusable path-expansion buffers of one-shot
// resolution: two PopPaths whose ASPath/Cities slices are recycled
// across pairs. One lives in each round worker; the zero value is ready
// to use.
type PathScratch struct {
	fwd, rev bgp.PopPath
}

// PairHandle is a resolved pair, ready for train pricing without any
// further cache traffic: a copy of the pair's path state, its FNV draw
// identity, the direction-resolved asymmetry, and the overlay effect.
// The state is held by value, so a one-shot miss needs no storage
// outside the handle.
type PairHandle struct {
	st   pathState
	hp   uint64
	asym float64
	eff  Effect
}

// PingSample is one slot of a ping train: the observed RTT and whether a
// reply arrived at all.
type PingSample struct {
	RTT time.Duration
	OK  bool
}

// resolveChunk bounds how many lookups Resolve keeps in flight at once.
// Large enough that the out-of-order core always has several
// independent cache-line misses to overlap, small enough that the
// per-chunk scratch stays on the stack.
const resolveChunk = 16

// Resolve resolves out[i] for pairs[i]; len(out) must equal len(pairs).
// ps selects the mode for pairs whose path state is not cached:
//
//   - ps == nil (cached mode): the state is computed and admitted to the
//     engine's cache, so later rounds hit it. Relay legs recur across
//     rounds and resolve this way.
//   - ps != nil (one-shot mode): the state is computed into the handle,
//     expanding paths into ps, and never admitted. Sampled rounds draw
//     a new pair set every round, so admitting their states would churn
//     the cache without ever warming it. ps must not be shared between
//     concurrent callers.
//
// Cached pairs are copied out in both modes. A path state is a pure
// function of pair identity, so the mode cannot change a single priced
// value. Each direction keeps its own asymmetry factor and overlay
// effect; the draw identity is shared by both directions of a pair. A
// pair named twice within one chunk of 16 — (a,b) next to (b,a) —
// computes its state once.
//
// The lookups run memory-parallel: a warm get is two dependent DRAM
// misses (hash lane, then wide lane) against tables far larger than
// LLC, and resolving pairs one at a time serializes those misses behind
// each train's pricing work. Here a chunk first hashes and probes all
// its hash lanes — independent loads the core overlaps — then touches
// the wide lanes likewise, so the per-pair memory stall approaches
// latency/chunk instead of 2×latency.
func (v View) Resolve(pairs []EndpointPair, out []PairHandle, ps *PathScratch) error {
	e := v.e
	for base := 0; base < len(pairs); base += resolveChunk {
		n := min(len(pairs)-base, resolveChunk)
		var (
			keys [resolveChunk]pairKey
			hs   [resolveChunk]uint64
			tabs [resolveChunk]*pairTable
			idxs [resolveChunk]int64
		)
		// Pass 1: hash every pair and probe its hash lane to the first
		// hash match (or the chain's end). The loop body is short ALU
		// work ahead of one independent miss per pair, which is what
		// lets the misses overlap.
		for j := 0; j < n; j++ {
			p := &pairs[base+j]
			key := canonicalKey(p.A, p.B)
			keys[j] = key
			h := tableHash(key)
			hs[j] = h
			idxs[j] = -1
			t := e.shards[e.shardOf(h)].tab.Load()
			tabs[j] = t
			if t == nil {
				continue
			}
			mask := uint64(len(t.hashes) - 1)
			for i := h & mask; ; i = (i + 1) & mask {
				hh := atomic.LoadUint64(&t.hashes[i])
				if hh == 0 {
					break
				}
				if hh == h {
					idxs[j] = int64(i)
					break
				}
			}
		}
		// Pass 2: confirm keys against the wide lanes — the second
		// round of independent misses. A hash match with the wrong key
		// (a 64-bit collision; effectively never) is demoted to the
		// miss path, which re-probes the whole chain itself.
		for j := 0; j < n; j++ {
			i := idxs[j]
			if i < 0 {
				continue
			}
			if !keyEq(&tabs[j].kv[i].key, &keys[j]) {
				idxs[j] = -1
			}
		}
		// Pass 3: fill handles; misses take the mode's path.
		for j := 0; j < n; j++ {
			h := &out[base+j]
			if i := idxs[j]; i >= 0 {
				h.st = tabs[j].kv[i].st
			} else if d := indexOfKey(keys[:j], &keys[j]); d >= 0 {
				h.st = out[base+d].st
			} else if ps != nil {
				st, err := e.computeStateInto(keys[j], ps)
				if err != nil {
					return err
				}
				h.st = st
			} else {
				st, err := e.stateByHash(hs[j], keys[j])
				if err != nil {
					return err
				}
				h.st = *st
			}
			p := &pairs[base+j]
			h.hp = hashPair(keys[j])
			h.asym = h.st.fwdAsym
			if p.A.Key() != keys[j].lo {
				h.asym = h.st.revAsym
			}
			h.eff = NeutralEffect()
			if v.ov != nil {
				h.eff = v.ov.PairEffect(p.A.City, p.B.City)
			}
		}
	}
	return nil
}

// indexOfKey returns the position of key in keys, or -1.
func indexOfKey(keys []pairKey, key *pairKey) int {
	for i := range keys {
		if keyEq(&keys[i], key) {
			return i
		}
	}
	return -1
}

// PingTrain prices one ping train for a resolved pair: len(out) pings of
// round `round`, slot s at UTC hour fraction hourFrac[s] (SlotHourFracs
// builds the schedule; len(hourFrac) must cover len(out)). The overlay
// effect was fixed when the handle was resolved: events are
// round-granular, and a train spans one round's window. Nothing in the
// loop touches the heap.
func (v View) PingTrain(h *PairHandle, round int, hourFrac []float64, out []PingSample) {
	for slot := range out {
		rtt, ok := v.e.pingSlot(&h.st, h.hp, h.asym, round, slot, hourFrac[slot], h.eff)
		out[slot] = PingSample{RTT: rtt, OK: ok}
	}
}
