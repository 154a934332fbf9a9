package pmem

// wcKeptSlots is the table size a barrier shrinks back to. At half load it
// holds the largest epoch steady-state ingest produces (≈ 520 blocks, when
// fresh table chunks are zeroed), so a warm engine never reallocates it.
const wcKeptSlots = 2048

// wcEpoch is the set of 256-byte blocks charged since the last barrier: an
// open-addressed table whose slots carry the epoch that wrote them. A slot
// stamped with any other epoch is free, so ending an epoch is one
// increment, whatever the table holds. Nothing is deleted within an epoch,
// which is all linear probing needs to stay exact. Guarded by epochMu.
type wcEpoch struct {
	slots []wcSlot // power-of-two length
	epoch uint64   // current stamp, ≥ 1: a zeroed slot is free
	live  int      // slots stamped with epoch
}

type wcSlot struct{ block, epoch uint64 }

func newWCEpoch() wcEpoch {
	return wcEpoch{slots: make([]wcSlot, wcKeptSlots), epoch: 1}
}

// charge adds block to the current epoch and reports whether it already
// was a member.
func (e *wcEpoch) charge(block uint64) bool {
	if e.insert(block) {
		return true
	}
	if e.live++; e.live*2 > len(e.slots) {
		old := e.slots
		e.slots = make([]wcSlot, 2*len(old))
		for _, s := range old {
			if s.epoch == e.epoch {
				e.insert(s.block)
			}
		}
	}
	return false
}

// insert looks block up along its probe sequence and, if it reaches a free
// slot first, puts it there.
func (e *wcEpoch) insert(block uint64) (found bool) {
	mask := uint64(len(e.slots) - 1)
	for i := block * 0x9E3779B97F4A7C15 >> 32 & mask; ; i = (i + 1) & mask {
		switch s := &e.slots[i]; {
		case s.epoch != e.epoch:
			*s = wcSlot{block, e.epoch}
			return false
		case s.block == block:
			return true
		}
	}
}

// end starts a new epoch, dropping a table an oversized epoch grew.
func (e *wcEpoch) end() {
	e.epoch++
	e.live = 0
	if len(e.slots) > wcKeptSlots {
		e.slots = make([]wcSlot, wcKeptSlots)
	}
}
