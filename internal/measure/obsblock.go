package measure

import (
	"shortcuts/internal/atlas"
	"shortcuts/internal/relays"
	"shortcuts/internal/topology"
)

// BlockSink is an optional Sink extension for columnar observation
// delivery: a sink implementing it receives each round's observations
// as one ObsBlock instead of per-observation Emit calls. The campaign
// owns the block and reuses it across rounds — it is valid only for the
// duration of EmitBlock, and sinks must copy anything they keep.
// RoundDone is still delivered separately, after the block.
//
// The block carries exactly the values the classic stream carries (a
// plain Sink's Emit calls are read back from the same block, row by
// row), so a BlockSink folding columns must equal the same sink folding
// Emit calls — the equivalence test pins that for StreamStats.
type BlockSink interface {
	Sink
	EmitBlock(b *ObsBlock)
}

// ObsBlock is one round's observations in struct-of-arrays form: the
// columnar counterpart of []Observation, reused across rounds so
// steady-state emission allocates nothing. Row i of every column is the
// i-th usable pair of the round, in the round's pair order.
type ObsBlock struct {
	Round int

	SrcProbe, DstProbe    []atlas.ProbeID
	SrcAS, DstAS          []topology.ASN
	SrcCC, DstCC          []string
	SrcCont, DstCont      []string
	DirectMs, RevDirectMs []float32

	// Per-relay-type columns: best stitched RTT, best relay catalog
	// index (-1 when no relay yielded both legs), feasible relay count.
	BestMs        [relays.NumTypes][]float32
	BestRelay     [relays.NumTypes][]int32
	FeasibleCount [relays.NumTypes][]uint16

	// Improving relays, flat: row i's entries are
	// Improve[ImproveOff[i]:ImproveOff[i+1]], in the same (catalog
	// ascending) order as Observation.Improving.
	ImproveOff []int32
	Improve    []ImproveEntry
}

// reset empties the block for a new round, retaining every column's
// capacity.
func (b *ObsBlock) reset(round int) {
	b.Round = round
	b.SrcProbe, b.DstProbe = b.SrcProbe[:0], b.DstProbe[:0]
	b.SrcAS, b.DstAS = b.SrcAS[:0], b.DstAS[:0]
	b.SrcCC, b.DstCC = b.SrcCC[:0], b.DstCC[:0]
	b.SrcCont, b.DstCont = b.SrcCont[:0], b.DstCont[:0]
	b.DirectMs, b.RevDirectMs = b.DirectMs[:0], b.RevDirectMs[:0]
	for t := 0; t < relays.NumTypes; t++ {
		b.BestMs[t] = b.BestMs[t][:0]
		b.BestRelay[t] = b.BestRelay[t][:0]
		b.FeasibleCount[t] = b.FeasibleCount[t][:0]
	}
	b.ImproveOff = append(b.ImproveOff[:0], 0)
	b.Improve = b.Improve[:0]
}

// append adds one stitched observation as a row. improving is the
// pair's improving-relay scratch; its entries copy into the flat
// Improve buffer (o.Improving is ignored).
func (b *ObsBlock) append(o *Observation, improving []ImproveEntry) {
	b.SrcProbe = append(b.SrcProbe, o.SrcProbe)
	b.DstProbe = append(b.DstProbe, o.DstProbe)
	b.SrcAS = append(b.SrcAS, o.SrcAS)
	b.DstAS = append(b.DstAS, o.DstAS)
	b.SrcCC = append(b.SrcCC, o.SrcCC)
	b.DstCC = append(b.DstCC, o.DstCC)
	b.SrcCont = append(b.SrcCont, o.SrcCont)
	b.DstCont = append(b.DstCont, o.DstCont)
	b.DirectMs = append(b.DirectMs, o.DirectMs)
	b.RevDirectMs = append(b.RevDirectMs, o.RevDirectMs)
	for t := 0; t < relays.NumTypes; t++ {
		b.BestMs[t] = append(b.BestMs[t], o.BestMs[t])
		b.BestRelay[t] = append(b.BestRelay[t], o.BestRelay[t])
		b.FeasibleCount[t] = append(b.FeasibleCount[t], o.FeasibleCount[t])
	}
	b.Improve = append(b.Improve, improving...)
	b.ImproveOff = append(b.ImproveOff, int32(len(b.Improve)))
}

// Len returns the number of rows.
func (b *ObsBlock) Len() int { return len(b.SrcProbe) }

// Observation materializes row i as a classic Observation. The
// Improving slice aliases the block's flat buffer (capacity-clamped):
// callers keeping the value past EmitBlock must copy it.
func (b *ObsBlock) Observation(i int) Observation {
	o := Observation{
		Round:    b.Round,
		SrcProbe: b.SrcProbe[i], DstProbe: b.DstProbe[i],
		SrcAS: b.SrcAS[i], DstAS: b.DstAS[i],
		SrcCC: b.SrcCC[i], DstCC: b.DstCC[i],
		SrcCont: b.SrcCont[i], DstCont: b.DstCont[i],
		DirectMs: b.DirectMs[i], RevDirectMs: b.RevDirectMs[i],
	}
	for t := 0; t < relays.NumTypes; t++ {
		o.BestMs[t] = b.BestMs[t][i]
		o.BestRelay[t] = b.BestRelay[t][i]
		o.FeasibleCount[t] = b.FeasibleCount[t][i]
	}
	if lo, hi := b.ImproveOff[i], b.ImproveOff[i+1]; hi > lo {
		o.Improving = b.Improve[lo:hi:hi]
	}
	return o
}
