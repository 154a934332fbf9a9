package index

// Structural self-checks for the fsck harness (internal/fsck): the leaf
// chain is the durable ground truth of a persistent index (it is what
// Hybrid recovery rebuilds from, §7.4), so integrity is defined against it.

import (
	"fmt"

	"poseidon/internal/storage"
)

// Entry is an exported (key, id) pair as stored in a leaf.
type Entry struct {
	Key storage.Value
	ID  uint64
}

// WalkLeaves visits every leaf in chain order, handing fn the leaf offset,
// its entries and the next-leaf offset (0 at the end). It stops early when
// fn returns false. The walk reads the persistent chain head for
// non-volatile trees and descends from the root for volatile ones.
func (t *Tree) WalkLeaves(fn func(leafOff uint64, entries []Entry, next uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	maxLeaves := uint64(t.leafDev.Size())/nodeBytes + 1
	leaf := t.chainHead()
	for n := uint64(0); leaf != 0 && n < maxLeaves; n++ {
		cnt := t.leafCount(leaf)
		if cnt > leafCap {
			cnt = leafCap // corrupt count; clamp so the caller still sees the leaf
		}
		entries := make([]Entry, cnt)
		for i := 0; i < cnt; i++ {
			e := t.leafEntry(leaf, i)
			entries[i] = Entry{Key: e.key, ID: e.id}
		}
		next := t.leafNext(leaf)
		if !fn(leaf, entries, next) {
			return
		}
		leaf = next
	}
}

func (t *Tree) chainHead() uint64 {
	if t.hdr != 0 {
		return t.leafDev.ReadU64(t.hdr + ihLeafHead)
	}
	return t.leftmostLeaf()
}

// CheckIntegrity verifies the tree's structural invariants and returns a
// description of each violation found (nil means healthy):
//
//   - the leaf chain is acyclic, in-bounds and properly terminated,
//   - per-leaf counts fit the node geometry,
//   - entries are strictly increasing by (key, id) within and across
//     leaves (strictness doubles as a duplicate check),
//   - the cached entry count matches the chain,
//   - every chain entry is reachable through a root descent, so the inner
//     levels agree with the leaves.
func (t *Tree) CheckIntegrity() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var probs []string
	devSize := uint64(t.leafDev.Size())
	maxLeaves := devSize/nodeBytes + 1

	seen := make(map[uint64]bool)
	var prev entry
	havePrev := false
	var total uint64
	leaf := t.chainHead()
	var steps uint64
	for leaf != 0 {
		if steps++; steps > maxLeaves {
			probs = append(probs, "leaf chain longer than the device can hold (cycle?)")
			break
		}
		if leaf%8 != 0 || leaf+nodeBytes > devSize {
			probs = append(probs, fmt.Sprintf("leaf offset %#x out of bounds or misaligned", leaf))
			break
		}
		if seen[leaf] {
			probs = append(probs, fmt.Sprintf("leaf chain cycles back to %#x", leaf))
			break
		}
		seen[leaf] = true
		cnt := t.leafCount(leaf)
		if cnt < 0 || cnt > leafCap {
			probs = append(probs, fmt.Sprintf("leaf %#x count %d exceeds capacity %d", leaf, cnt, leafCap))
			leaf = t.leafNext(leaf)
			continue
		}
		for i := 0; i < cnt; i++ {
			e := t.leafEntry(leaf, i)
			if havePrev && !prev.less(e) {
				probs = append(probs, fmt.Sprintf("leaf %#x entry %d (key %v, id %d) not greater than its predecessor (key %v, id %d)",
					leaf, i, e.key, e.id, prev.key, prev.id))
			}
			if !t.containsLocked(e) {
				probs = append(probs, fmt.Sprintf("leaf %#x entry (key %v, id %d) unreachable from the root (inner levels disagree with leaf chain)",
					leaf, e.key, e.id))
			}
			prev, havePrev = e, true
			total++
		}
		leaf = t.leafNext(leaf)
	}
	if total != t.count {
		probs = append(probs, fmt.Sprintf("cached entry count %d != %d entries on the leaf chain", t.count, total))
	}
	return probs
}

// containsLocked is Contains without re-acquiring the tree lock.
func (t *Tree) containsLocked(e entry) bool {
	leaf := t.leafFor(e, nil)
	n := t.leafCount(leaf)
	if n > leafCap {
		return false
	}
	for i := 0; i < n; i++ {
		if t.leafEntry(leaf, i) == e {
			return true
		}
	}
	return false
}
