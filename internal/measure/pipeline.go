package measure

import (
	"fmt"
	"sync"

	"shortcuts/internal/atlas"
)

// run executes the campaign on len(c.slots) slots and releases rounds to
// sink strictly in round order. Round r runs on slot r % K, owned by one
// worker goroutine, which reuses the slot's scratch arena across its
// rounds. A worker hands its finished slot to the release loop and waits
// until the slot comes back, so at most K rounds ever sit between
// execution and the Sink: a slow Sink throttles the workers instead of
// growing a reorder buffer.
//
// At K = 1 the single worker starts round r+1 only after round r's
// RoundDone has returned — the order a SelfHeal controller needs, since
// it reads round r before it plans round r+1.
func (c *campaign) run(sink Sink) error {
	if c.cfg.SelfHeal != nil {
		// The controller sees each round before the caller's sink does,
		// so by the time external observers learn round r finished, the
		// exclusions for round r+1 are already decided.
		sink = MultiSink(c.cfg.SelfHeal, sink)
	}
	k := len(c.slots)
	done := make([]chan struct{}, k) // worker w -> release loop: round executed
	ack := make([]chan struct{}, k)  // release loop -> worker w: slot released
	for w := 0; w < k; w++ {
		done[w] = make(chan struct{})
		ack[w] = make(chan struct{})
	}
	stop := make(chan struct{}) // closed by the release loop on abort
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := &c.slots[w]
			for round := w; round < c.cfg.Rounds; round += k {
				slot.info, slot.err = c.roundExec(slot, round)
				select {
				case done[w] <- struct{}{}:
				case <-stop:
					return
				}
				// The slot's block must not be reset while the release
				// loop reads it.
				select {
				case <-ack[w]:
				case <-stop:
					return
				}
			}
		}(w)
	}

	for round := 0; round < c.cfg.Rounds; round++ {
		w := round % k
		<-done[w]
		if err := c.release(&c.slots[w], sink); err != nil {
			close(stop)
			wg.Wait()
			return fmt.Errorf("measure: round %d: %w", round, err)
		}
		ack[w] <- struct{}{}
	}
	wg.Wait()
	return nil
}

// release moves one executed round from its slot to the sink; it is the
// only place rounds reach a Sink. It charges the round's credits first —
// in round order, so exhaustion aborts at the same round at any depth,
// with nothing of the failing round delivered — then hands a BlockSink
// the slot's block, or gives a plain Sink one Emit per row, and finally
// calls RoundDone.
func (c *campaign) release(slot *roundSlot, sink Sink) error {
	if slot.err != nil {
		return slot.err
	}
	info := slot.info
	day := int(info.Start.Sub(c.cfg.Start).Hours() / 24)
	if err := c.ledger.Spend(day, info.PingsSent*atlas.PingCost); err != nil {
		return err
	}
	if bs, ok := sink.(BlockSink); ok {
		bs.EmitBlock(&slot.block)
	} else {
		for i := 0; i < slot.block.Len(); i++ {
			o := slot.block.Observation(i)
			// Improving aliases the slot's block, which the slot's next
			// round overwrites, so it gets an exact-size arena copy.
			if n := len(o.Improving); n > 0 {
				imp := c.arena.alloc(n)
				copy(imp, o.Improving)
				o.Improving = imp
			}
			sink.Emit(o)
		}
	}
	sink.RoundDone(info)
	return nil
}
