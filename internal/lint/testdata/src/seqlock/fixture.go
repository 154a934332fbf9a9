// Golden fixture for the seqlock pass: record memory may only be read
// inside a Bts/Ets snapshot + TxnID re-check bracket, under a TxnID CAS
// pin, or while holding the shard commitMu.
package fixture

import (
	"sync"

	"poseidon/internal/pmem"
	"poseidon/internal/storage"
)

type shardS struct {
	commitMu sync.Mutex
	dev      *pmem.Device
}

func badUnbracketed(dev *pmem.Device, off uint64) storage.NodeRec {
	return storage.ReadNodeRec(dev, off) // want seqlock
}

func badHalfBracket(dev *pmem.Device, off uint64) storage.NodeRec {
	var rec storage.NodeRec
	for {
		bts := dev.ReadU64(off + storage.NBts)
		rec = storage.ReadNodeRec(dev, off) // want seqlock
		if bts == dev.ReadU64(off+storage.NBts) {
			break
		}
	}
	return rec
}

func badUnboundedChain(dev *pmem.Device, tbl *storage.Table, off, head uint64) []storage.Prop {
	for {
		bts1 := dev.ReadU64(off + storage.NBts)
		ets1 := dev.ReadU64(off + storage.NEts)
		props := storage.ReadPropChain(tbl, head) // want seqlock
		if dev.ReadU64(off+storage.NTxnID) != 0 {
			continue
		}
		if bts1 == dev.ReadU64(off+storage.NBts) && ets1 == dev.ReadU64(off+storage.NEts) {
			return props
		}
	}
}

func badUnboundedLookup(dev *pmem.Device, tbl *storage.Table, off, head uint64) storage.Value {
	for {
		bts1 := dev.ReadU64(off + storage.NBts)
		ets1 := dev.ReadU64(off + storage.NEts)
		v, _ := storage.PropValue(tbl, head, 7) // want seqlock
		if dev.ReadU64(off+storage.NTxnID) != 0 {
			continue
		}
		if bts1 == dev.ReadU64(off+storage.NBts) && ets1 == dev.ReadU64(off+storage.NEts) {
			return v
		}
	}
}

// The buffer-appending reader is a record read like the others: outside
// a bracket it is flagged, whatever buffer it fills.
func badChainIntoBuffer(tbl *storage.Table, head uint64, buf []storage.Prop) []storage.Prop {
	props, _ := storage.ReadPropChainInto(tbl, head, buf, 64) // want seqlock
	return props
}

func goodBracketed(dev *pmem.Device, off uint64) storage.NodeRec {
	for {
		bts1 := dev.ReadU64(off + storage.NBts)
		ets1 := dev.ReadU64(off + storage.NEts)
		rec := storage.ReadNodeRec(dev, off)
		if dev.ReadU64(off+storage.NTxnID) != 0 {
			continue
		}
		if bts1 == dev.ReadU64(off+storage.NBts) && ets1 == dev.ReadU64(off+storage.NEts) {
			return rec
		}
	}
}

func goodBoundedChain(dev *pmem.Device, tbl *storage.Table, off, head uint64) []storage.Prop {
	for {
		bts1 := dev.ReadU64(off + storage.NBts)
		ets1 := dev.ReadU64(off + storage.NEts)
		var buf [8]storage.Prop
		props, ok := storage.ReadPropChainInto(tbl, head, buf[:0], 64)
		if !ok || dev.ReadU64(off+storage.NTxnID) != 0 {
			continue
		}
		if bts1 == dev.ReadU64(off+storage.NBts) && ets1 == dev.ReadU64(off+storage.NEts) {
			return props
		}
	}
}

func goodCASPinned(dev *pmem.Device, off, id uint64) (storage.NodeRec, bool) {
	if !dev.CompareAndSwapU64(off+storage.NTxnID, 0, id) {
		return storage.NodeRec{}, false
	}
	rec := storage.ReadNodeRec(dev, off)
	return rec, true
}

func goodLookupUnderCommitLock(sh *shardS, tbl *storage.Table, head uint64) (storage.Value, bool) {
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	return storage.PropValue(tbl, head, 7)
}

func goodUnderCommitLock(sh *shardS, off uint64) storage.RelRec {
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	return storage.ReadRelRec(sh.dev, off)
}

//poseidonlint:ignore seqlock fixture stand-in for an offline verifier with no concurrent writers
func annotatedOffline(dev *pmem.Device, off uint64) storage.NodeRec {
	return storage.ReadNodeRec(dev, off)
}
