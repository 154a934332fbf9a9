package storage

import (
	"fmt"

	"poseidon/internal/pmemobj"
)

// Property batches (DD3): key/value pairs of a node or relationship are
// grouped into cache-line-sized records of up to three items; further
// items link to the next batch. All property mutations run inside the
// enclosing pmemobj transaction so that the property chain flips along
// with its owner's version fields.

// PropRecords returns the number of property records a chain of n
// properties occupies.
func PropRecords(n int) int { return (n + PItemsMax - 1) / PItemsMax }

// WritePropChainTx stores props as a chain of property records, returning
// the head record id (or NilID for an empty set). Slots are allocated
// within tx from any shard.
func WritePropChainTx(tx *pmemobj.Tx, tbl *Table, owner uint64, props []Prop) (uint64, error) {
	return writePropChainTx(tx, tbl, owner, props, nil)
}

// WritePropChainAtTx is WritePropChainTx into the slots ids, one per
// record of the chain, reserved beforehand with FreeSlots. A caller that
// snapshotted the slots' bitmap words before the transaction's first
// write (the engine's commit, in its one SnapshotAll) takes them without
// another undo-log fence.
func WritePropChainAtTx(tx *pmemobj.Tx, tbl *Table, owner uint64, props []Prop, ids []uint64) (uint64, error) {
	if len(ids) != PropRecords(len(props)) {
		return 0, fmt.Errorf("storage: %d properties need %d records, %d reserved", len(props), PropRecords(len(props)), len(ids))
	}
	return writePropChainTx(tx, tbl, owner, props, ids)
}

// writePropChainTx takes the chain's slots from ids in order, or from
// any shard when ids is nil.
func writePropChainTx(tx *pmemobj.Tx, tbl *Table, owner uint64, props []Prop, ids []uint64) (uint64, error) {
	if len(props) == 0 {
		return NilID, nil
	}
	dev := tbl.dev
	head := NilID
	var prevOff uint64
	for i := 0; i < len(props); i += PItemsMax {
		var id, off uint64
		var err error
		if ids == nil {
			id, off, err = tbl.InsertTx(tx)
		} else {
			id = ids[i/PItemsMax]
			off, err = tbl.InsertAtTx(tx, id)
		}
		if err != nil {
			return 0, err
		}
		dev.WriteU64(off+PNext, NilID)
		dev.WriteU64(off+POwner, owner)
		for j := 0; j < PItemsMax; j++ {
			item := off + PItems + uint64(j)*PItemSize
			if i+j < len(props) {
				p := props[i+j]
				dev.WriteU64(item+piKey, uint64(p.Key)|uint64(p.Val.Type)<<32)
				dev.WriteU64(item+piVal, p.Val.Raw)
			} else {
				dev.WriteU64(item+piKey, 0)
				dev.WriteU64(item+piVal, 0)
			}
		}
		tx.NoteWrite(off, PropRecordSize)
		if head == NilID {
			head = id
		} else {
			// Link from the previous batch; it was written in this tx and
			// is already covered by its NoteWrite.
			dev.WriteU64(prevOff+PNext, id)
		}
		prevOff = off
	}
	return head, nil
}

// propRec is one property record as loaded from the device: readers take
// the whole 64-byte record with a single ReadWords (one range check, one
// counter add, one cache probe), like ReadNodeRec and ReadRelRec.
type propRec [PropRecordSize / 8]uint64

func (r *propRec) next() uint64 { return r[PNext/8] }

// item decodes the j-th key/value slot; an empty slot has key 0 and
// TypeNil.
func (r *propRec) item(j int) (key uint32, typ ValueType, raw uint64) {
	w := (PItems + j*PItemSize) / 8
	kt := r[w+piKey/8]
	return uint32(kt), ValueType(kt >> 32), r[w+piVal/8]
}

// ReadPropChain decodes the property chain starting at record id head,
// for callers that exclude the record's writers.
func ReadPropChain(tbl *Table, head uint64) []Prop {
	props, _ := ReadPropChainInto(tbl, head, nil, 0)
	return props
}

// ReadPropChainInto appends the properties of the chain starting at head
// to dst and returns the extended slice, so a reader that brings its own
// buffer decodes without allocating. maxRecs bounds the number of chain
// records walked (0 = unbounded): a concurrent reader's walk can be torn
// by records being recycled underneath it, and must neither follow a
// pointer cycle forever nor trust what it gathered. ok=false reports such
// a walk — the bound was hit or a pointer led outside the table — whose
// result must be discarded and the read revalidated.
func ReadPropChainInto(tbl *Table, head uint64, dst []Prop, maxRecs int) ([]Prop, bool) {
	var rec propRec
	walked := 0
	for id := head; id != NilID; id = rec.next() {
		if maxRecs > 0 && walked >= maxRecs {
			return dst, false
		}
		walked++
		off, ok := tbl.RecordOffset(id)
		if !ok {
			return dst, false
		}
		tbl.dev.ReadWords(off, rec[:])
		for j := 0; j < PItemsMax; j++ {
			key, typ, raw := rec.item(j)
			if key == 0 && typ == TypeNil {
				continue
			}
			dst = append(dst, Prop{Key: key, Val: Value{Type: typ, Raw: raw}})
		}
	}
	return dst, true
}

// PropValue looks up a single key in the chain without materializing the
// whole property set; the common case for filters.
func PropValue(tbl *Table, head uint64, key uint32) (Value, bool) {
	var rec propRec
	for id := head; id != NilID; id = rec.next() {
		off, ok := tbl.RecordOffset(id)
		if !ok {
			return Value{}, false
		}
		tbl.dev.ReadWords(off, rec[:])
		for j := 0; j < PItemsMax; j++ {
			if k, typ, raw := rec.item(j); k == key {
				return Value{Type: typ, Raw: raw}, true
			}
		}
	}
	return Value{}, false
}

// FreePropChainTx releases every record of the chain starting at head.
func FreePropChainTx(tx *pmemobj.Tx, tbl *Table, head uint64) error {
	dev := tbl.dev
	for id := head; id != NilID; {
		off, ok := tbl.RecordOffset(id)
		if !ok {
			return nil
		}
		next := dev.ReadU64(off + PNext)
		if err := tbl.ReleaseTx(tx, id); err != nil {
			return err
		}
		id = next
	}
	return nil
}
