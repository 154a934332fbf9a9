// Golden fixture for the torn-store pass: multi-word persistent stores
// outside a transaction are flagged (paper C4) even when flushed;
// transactional and annotated ones are not.
package fixture

import (
	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
)

func bad(dev *pmem.Device, off uint64, words []uint64) {
	dev.WriteWords(off, words) // want torn-store
	dev.Persist(off, uint64(len(words))*8)
}

func badPPtr(p *pmemobj.Pool, off uint64, pp pmemobj.PPtr) {
	p.WritePPtr(off, pp) // want torn-store
	p.Device().Persist(off, 16)
}

func goodSingleWord(dev *pmem.Device, off uint64) {
	dev.WriteU64(off, 1) // 8-byte stores are failure-atomic
	dev.Persist(off, 8)
}

func goodTx(p *pmemobj.Pool, off uint64, words []uint64) error {
	return p.RunTx(func(tx *pmemobj.Tx) error {
		if err := tx.Snapshot(off, uint64(len(words))*8); err != nil {
			return err
		}
		p.Device().WriteWords(off, words) // undo log makes this failure-atomic
		return nil
	})
}

func annotated(dev *pmem.Device, off uint64, words []uint64) {
	//poseidonlint:ignore torn-store staging area is unreachable until an 8-byte commit word flips after Persist
	dev.WriteWords(off, words)
	dev.Persist(off, uint64(len(words))*8)
}

// deferredStillTorn: //pmem:deferred-flush hands flushing to the caller
// (flush-discipline skips the function), but a later flush does not make
// a multi-word store failure-atomic, so torn-store still reports it.
//
//pmem:deferred-flush the caller persists the range
func deferredStillTorn(dev *pmem.Device, off uint64, words []uint64) {
	dev.WriteWords(off, words) // want torn-store
}
