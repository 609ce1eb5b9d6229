package main

import (
	"fmt"

	"shortcuts/internal/measure"
)

// The campaign calls into its sink stack from one goroutine, so the
// callbacks of one round form a sequence on one clock. roundClock walks
// that sequence: every gap between the end of one callback and the start
// of the next is the campaign's own (self) time, and every callback is
// charged to its kind. A round ends when the caller's sink returns from
// RoundDone; the round's self time plus its callback time must then equal
// the round span exactly, which checks that no callback was missed or
// ran concurrently with another.
const (
	kindSinkEmit = iota
	kindSinkRoundDone
	kindDetectEmit
	kindDetectRoundDone
	numKinds
)

var kindNames = [numKinds]string{"sink.emit", "sink.round_done", "detect.emit", "detect.round_done"}

type kindTotal struct {
	first, total int64
	calls        int
}

// roundTrace is one round as the clock saw it, in nanoseconds.
type roundTrace struct {
	start, end, self int64
	kinds            [numKinds]int64
}

type roundClock struct {
	tr       *tracer
	parent   int // the measure.run span
	lastExit int64
	start    int64 // current round's start
	self     int64
	kinds    [numKinds]kindTotal
	rounds   []roundTrace
	// afterRound runs between rounds, outside every round span, to read
	// counters that should not be charged to the campaign.
	afterRound func(measure.RoundInfo)
	err        error
}

// newRoundClock starts the clock; call it immediately before RunStream.
func newRoundClock(tr *tracer, parent int) *roundClock {
	now := tr.now()
	return &roundClock{tr: tr, parent: parent, lastExit: now, start: now}
}

func (c *roundClock) enter() int64 {
	now := c.tr.now()
	if gap := now - c.lastExit; gap >= 0 {
		c.self += gap
	} else if c.err == nil {
		c.err = fmt.Errorf("sink callback started %dns before the previous one returned", -gap)
	}
	return now
}

func (c *roundClock) exit(kind int, in int64) {
	now := c.tr.now()
	k := &c.kinds[kind]
	if k.calls == 0 {
		k.first = in
	}
	k.total += now - in
	k.calls++
	c.lastExit = now
}

func (c *roundClock) closeRound(info measure.RoundInfo) {
	rt := roundTrace{start: c.start, end: c.lastExit, self: c.self}
	id := c.tr.add("measure.round", c.parent, rt.start, rt.end, 0)
	sum := rt.self
	for i := range c.kinds {
		k := &c.kinds[i]
		rt.kinds[i] = k.total
		sum += k.total
		if k.calls > 0 {
			c.tr.add(kindNames[i], id, k.first, k.first+k.total, k.calls)
		}
		*k = kindTotal{}
	}
	if sum != rt.end-rt.start && c.err == nil {
		c.err = fmt.Errorf("round %d: self %dns + callbacks %dns != span %dns",
			info.Round, rt.self, sum-rt.self, rt.end-rt.start)
	}
	c.rounds = append(c.rounds, rt)
	if c.afterRound != nil {
		h := c.tr.begin("trace.counters", c.parent)
		c.afterRound(info)
		c.tr.end(h)
	}
	c.self = 0
	c.lastExit = c.tr.now()
	c.start = c.lastExit
}

// traceSink wraps the caller's sink. The wrapper is a measure.BlockSink
// exactly when inner is one: the campaign picks columnar delivery by type
// assertion, so a wrapper that always (or never) offered EmitBlock would
// switch the traced campaign onto a different emission path than the
// untraced one.
func traceSink(inner measure.Sink, c *roundClock) measure.Sink {
	s := tracedSink{inner: inner, clock: c}
	if b, ok := inner.(measure.BlockSink); ok {
		return &tracedBlockSink{tracedSink: s, block: b}
	}
	return &s
}

type tracedSink struct {
	inner measure.Sink
	clock *roundClock
}

func (s *tracedSink) Emit(o measure.Observation) {
	in := s.clock.enter()
	s.inner.Emit(o)
	s.clock.exit(kindSinkEmit, in)
}

func (s *tracedSink) RoundDone(info measure.RoundInfo) {
	in := s.clock.enter()
	s.inner.RoundDone(info)
	s.clock.exit(kindSinkRoundDone, in)
	s.clock.closeRound(info)
}

type tracedBlockSink struct {
	tracedSink
	block measure.BlockSink
}

func (s *tracedBlockSink) EmitBlock(b *measure.ObsBlock) {
	in := s.clock.enter()
	s.block.EmitBlock(b)
	s.clock.exit(kindSinkEmit, in)
}

// tracedController wraps a detector attached as Config.SelfHeal. The
// campaign feeds it ahead of the caller's sink, so its RoundDone does not
// close the round.
type tracedController struct {
	inner measure.SelfHealController
	clock *roundClock
}

func (d *tracedController) Emit(o measure.Observation) {
	in := d.clock.enter()
	d.inner.Emit(o)
	d.clock.exit(kindDetectEmit, in)
}

func (d *tracedController) RoundDone(info measure.RoundInfo) {
	in := d.clock.enter()
	d.inner.RoundDone(info)
	d.clock.exit(kindDetectRoundDone, in)
}

func (d *tracedController) ExcludedRelays(round int) []bool { return d.inner.ExcludedRelays(round) }
