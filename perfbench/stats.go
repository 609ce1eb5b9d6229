package main

import (
	"math"
	"runtime"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// goStats is a snapshot of the Go runtime counters the benchmark reports.
// runtime.MemStats keeps each recent collection's exact stop-the-world
// pause, where runtime/metrics only has a bucketed histogram.
type goStats struct{ m runtime.MemStats }

func readGoStats() goStats {
	var s goStats
	runtime.ReadMemStats(&s.m)
	return s
}

// goDelta is what the runtime did between two snapshots.
type goDelta struct {
	AllocMB    float64   `json:"alloc_mb"`
	GCCycles   float64   `json:"gc_cycles"`
	PauseP99Ms float64   `json:"gc_pause_p99_ms"`
	Pauses     []float64 `json:"gc_pauses_ms"`
}

func (a goStats) to(b goStats) goDelta {
	d := goDelta{
		AllocMB:  float64(b.m.TotalAlloc-a.m.TotalAlloc) / 1e6,
		GCCycles: float64(b.m.NumGC - a.m.NumGC),
	}
	// PauseNs is a ring of the last 256 collections; cycle n's pause is
	// at (n+255)%256.
	for n := a.m.NumGC + 1; n <= b.m.NumGC; n++ {
		if b.m.NumGC-n < 256 {
			d.Pauses = append(d.Pauses, float64(b.m.PauseNs[(n+255)%256])/1e6)
		}
	}
	d.PauseP99Ms = quantile(d.Pauses, 0.99)
	return d
}

// mergeGo combines deltas of one phase repeated: allocations and cycles
// are averaged per repetition, pauses pooled before taking the p99.
func mergeGo(ds []goDelta) goDelta {
	var out goDelta
	for _, d := range ds {
		out.AllocMB += d.AllocMB / float64(len(ds))
		out.GCCycles += d.GCCycles / float64(len(ds))
		out.Pauses = append(out.Pauses, d.Pauses...)
	}
	out.PauseP99Ms = quantile(out.Pauses, 0.99)
	return out
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// caller keeps whatever should count as live reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
